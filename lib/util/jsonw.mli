(** A small escaping-correct JSON writer and reader.

    Every JSON document the system emits or reads — metrics snapshots,
    bench-history records, lint and battery reports, the serve wire
    protocol — goes through this one value type. Numbers can be
    carried preformatted ([Num]) so call sites keep exact control over
    float precision (which matters for byte-identical snapshots). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of string  (** preformatted number literal, emitted verbatim *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val float : ?dec:int -> float -> t
(** [Num] with [dec] decimal places (default 6). Non-finite values
    render as [Null] (JSON has no NaN/Infinity). *)

val escape : string -> string
(** The escaped contents of a JSON string, without the surrounding
    quotes: quote, backslash and control characters become escape
    sequences;
    bytes >= 0x80 pass through untouched (the string is assumed
    UTF-8). *)

val to_buffer : ?indent:int -> Buffer.t -> t -> unit

val to_string : ?indent:int -> t -> string
(** [indent = 0] (default) is compact one-line JSON; a positive
    [indent] pretty-prints objects and arrays at that step. *)

val of_string : string -> (t, string) result
(** Minimal strict parser, the round-trip partner of {!to_string}:
    numbers are kept as [Num] literals verbatim, [\uXXXX] escapes are
    decoded to UTF-8 (surrogate pairs combine into one astral code
    point; lone surrogates and bad hex digits are parse errors). *)

(** {1 Framing}

    Length-prefixed JSON frames for the serve-daemon socket: a 4-byte
    big-endian byte length followed by that many bytes of compact
    JSON. The reader side is a push-style incremental framer so short
    reads across frame boundaries (the normal case on a socket) just
    work. *)

val default_max_frame : int
(** 16 MiB — the frame-size ceiling both sides enforce by default. *)

val frame : ?max_frame:int -> t -> string
(** [frame v] is the wire form of [v]: big-endian length + compact
    JSON. Raises [Invalid_argument] if the encoding exceeds
    [max_frame]. *)

type framer
(** Incremental frame reader; one per connection. *)

val framer : ?max_frame:int -> unit -> framer

val feed : framer -> Bytes.t -> int -> int -> unit
(** [feed fr b off len] appends bytes read from the socket. *)

val feed_string : framer -> string -> unit

val next : framer -> [ `Frame of string | `Await | `Error of string ]
(** Pop the next complete frame body. [`Await] means more bytes are
    needed; [`Error] (a frame longer than [max_frame]) is sticky —
    the connection should be dropped, since resynchronising inside a
    byte stream is not possible. *)
