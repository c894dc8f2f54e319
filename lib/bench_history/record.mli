(** One bench-history record: what one bench target measured at one
    commit.

    A record splits into a {e stable part} — version, target, the
    diffable counter snapshot ({!Shell_util.Obs.diffable_counters})
    and the span-structure aggregate ({!Shell_util.Obs.span_aggregate})
    — and context that legitimately varies between runs of the same
    code: commit id, job count, wall times. {!stable_json} renders
    only the former, so two runs of the same target on the same commit
    produce byte-identical stable parts at any [SHELL_JOBS]; the full
    {!json} line is what the JSONL history stores. *)

type t = {
  version : int;  (** record-format version, {!version} when written *)
  commit : string;
      (** the commit checked out when the record was made (git HEAD,
          unless overridden). A record that a change appends is made
          before the change is committed, so it carries the change's
          parent. The stamp labels the record; [--check] never selects
          a baseline by it (the baseline is the last record of the
          history file it reads). *)
  target : string;
  jobs : int;
  times : (string * float) list;  (** per-benchmark wall seconds *)
  counters : (string * int) list;  (** name-sorted diffable counters *)
  spans : (string * int) list;  (** name-sorted span aggregate *)
}

val version : int
(** Current record-format version (1). *)

val json : t -> Shell_util.Jsonw.t

val stable_json : t -> Shell_util.Jsonw.t
(** Only the byte-diffable part: version, target, counters, spans. *)

val to_line : t -> string
(** Compact single-line JSON, the JSONL history representation. *)

val of_json : Shell_util.Jsonw.t -> (t, string) result
val of_line : string -> (t, string) result
