(** Structured diagnostics for the SheLL flow.

    A diagnostic carries {e where} a failure happened (the pipeline
    pass and a stack of context labels) alongside {e what} happened:
    a human-readable message plus an optional typed payload that
    callers can match on (e.g. the PnR fit-check shortage). The
    payload type is extensible so downstream libraries — fabric, PnR —
    can attach their own typed data without [shell_util] depending on
    them.

    The flow's legacy error styles ([failwith], [invalid_arg],
    [(unit, string) result], [`Msg]) funnel into this one type, so the
    diagnostic a failing run raises names the pass that failed. *)

type payload = ..
(** Typed machine-readable detail. Libraries extend this; register a
    printer with {!register_printer} so [to_string] can render it. *)

type payload += Msg of string  (** no structured detail *)

type t = {
  pass : string option;  (** pipeline pass that failed, when known *)
  context : string list;  (** outermost label first *)
  payload : payload;
  message : string;
}

exception Error of t

val make : ?pass:string -> ?context:string list -> ?payload:payload -> string -> t

val msgf :
  ?pass:string ->
  ?payload:payload ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** Format-string constructor. *)

val fail : ?pass:string -> ?payload:payload -> string -> 'a
(** Raise {!Error}. *)

val failf :
  ?pass:string ->
  ?payload:payload ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a

val error : ?pass:string -> ?payload:payload -> string -> ('a, t) result

val with_context : string -> (unit -> 'a) -> 'a
(** Run a thunk; an {!Error} escaping it is re-raised with the label
    pushed onto its context stack. [Invalid_argument] and [Failure]
    are converted to diagnostics on the way (the migration path for
    legacy sites not yet speaking [Diag]). *)

val in_pass : string -> (unit -> 'a) -> 'a
(** Like {!with_context}, and additionally stamps the pass name onto
    escaping diagnostics that do not carry one yet. *)

val of_exn : exn -> t option
(** [Some] for {!Error}, [Invalid_argument] and [Failure]. *)

val register_printer : (payload -> string option) -> unit
(** Printers are tried most-recently-registered first. *)

val payload_string : payload -> string option
(** Rendered typed payload, when a registered printer recognizes it. *)

val to_string : t -> string
(** ["pass: ctx1: ctx2: message [payload]"]. *)

val pp : Format.formatter -> t -> unit
