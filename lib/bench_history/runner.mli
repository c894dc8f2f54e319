(** The record-producing runner behind [shell bench]: run a
    {!Targets.t} with Obs enabled from a clean slate, snapshot the
    diffable counters and span aggregate, stamp the commit id, and
    orchestrate [--record] / [--check] / [--report]
    against the JSONL history. {!execute} runs every target at
    {!Shell_util.Pool.default_jobs} ([SHELL_JOBS] or the core count);
    the stable part of a record is the same at any job count. *)

val commit_id : unit -> string
(** [SHELL_BENCH_COMMIT] when set; otherwise the current git HEAD
    resolved by reading [.git] directly (searching upward from the
    working directory, following [HEAD] refs through loose and packed
    refs — no subprocess); ["unknown"] when neither works. *)

val run_target : ?commit:string -> jobs:int -> Targets.t -> Record.t
(** Execute one target under freshly-reset, enabled Obs (pass cache
    cleared; prior enablement restored afterwards) and package the
    result: wall times from the target, counters via
    {!Shell_util.Obs.diffable_counters} with {!Targets.extra_counters}
    pinned, spans via {!Shell_util.Obs.span_aggregate} under a
    ["bench.<name>"] root span. *)

type opts = {
  targets : string list;  (** empty = every registered target *)
  history : string option;  (** default [BENCH_HISTORY.jsonl] in the cwd *)
  record : bool;  (** append the new records to the history *)
  check : bool;  (** diff against the last committed record per target *)
  report : string option;  (** write the HTML trend page here *)
  commit : string option;  (** override {!commit_id} *)
}

val default_opts : opts
(** Run everything, record/check/report all off, defaults above. *)

val execute : ?out:(string -> unit) -> opts -> (unit, Shell_util.Diag.t list) result
(** Run the selected targets through {!run_target}, then in order:
    check each fresh record against the history baseline (collecting a
    {!Check.Perf_drift} diagnostic per drifting target), append the
    records when recording, and render the report (which includes the
    just-appended records). Progress lines go to [out] (default
    [print_endline]); [Error] carries every drift found. *)
