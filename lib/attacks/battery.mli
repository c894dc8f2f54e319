(** The attack battery: every registered attack fanned over every
    locked subject, reported as a per-scheme x per-attack resilience
    matrix.

    Registry pattern as in [Shell_lint.Rules] and [Shell_fuzz.Oracles]:
    {!all} is the ordered list, {!find}/{!names} look it up, and column
    order in the matrix is registry order.

    Determinism contract: cells fan out over the domain pool one
    (subject, attack) pair per task and are reassembled by index, so —
    as long as each attack's verdict is deterministic (dip/conflict/
    vector caps bind before [time_limit]) —
    {!matrix_json} is byte-identical at any [SHELL_JOBS]. The JSON
    deliberately omits wall-clock fields; CI byte-diffs it at jobs 1
    vs 4. *)

val all : Attack.t list
(** sat, appsat, brute, sensitize, structural, redundancy, scope,
    removal, proximity, portfolio — in matrix column order. The
    oracle-less trio (structural, redundancy, scope) all run on the
    shared [Shell_lint] dataflow engine. *)

val find : string -> Attack.t option
val names : unit -> string list

type cell = { attack : string; verdict : Attack.verdict }

type row = {
  subject : string;  (** {!Attack.subject} label *)
  scheme : string;
  key_bits : int;
  cells : cell list;  (** one per attack, registry order *)
}

type matrix = { attacks : string list; rows : row list }

val run_attack : Attack.budget -> Attack.t -> Attack.subject -> cell
(** One cell, wrapped in an ["attack.<name>"] Obs span and counted in
    the stable [battery_cells] counter. *)

val run :
  ?jobs:int ->
  ?attacks:Attack.t list ->
  budget:Attack.budget ->
  Attack.subject list ->
  matrix
(** Fan [attacks] (default {!all}) over the subjects on the domain
    pool, one task per cell, subject-major. *)

val matrix_json : matrix -> Shell_util.Jsonw.t
(** Stable rendering: verdicts, keys (as 0/1 strings), iteration/query/
    conflict counts and [detail] — no [elapsed]. *)

val pp_matrix : Format.formatter -> matrix -> unit
(** Text table: one row per subject, one column per attack, cells
    [BROKEN]/[resilient]/[n/a]. *)
