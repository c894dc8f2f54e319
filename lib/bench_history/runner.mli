(** The record-producing runner behind [shell bench]: run a
    {!Targets.t} with Obs enabled from a clean slate, snapshot the
    diffable counters and span aggregate, stamp the commit id, and
    orchestrate [--record] / [--check] / [--report]
    against the JSONL history. *)

val commit_id : unit -> string
(** [SHELL_BENCH_COMMIT] when set; otherwise the current git HEAD
    resolved by reading [.git] directly (searching upward from the
    working directory, following [HEAD] refs through loose and packed
    refs — no subprocess); ["unknown"] when neither works. *)

val merge_base_commit : unit -> string option
(** The commit [--against merge-base] compares to:
    [SHELL_BENCH_MERGE_BASE] when set, otherwise the tip of the
    origin default branch read from [.git] (the
    [refs/remotes/origin/HEAD] symref, then [origin/main],
    [origin/master], and the local [main]/[master] heads). This is the
    merge-base approximation available without walking the object
    graph: on a just-forked feature branch the default-branch tip {e
    is} the merge base, and CI pipelines that know better inject the
    exact sha via the env var. [None] when no candidate resolves. *)

val commit_matches : spec:string -> string -> bool
(** Prefix-tolerant commit comparison (either side may be abbreviated,
    as [SHELL_BENCH_COMMIT] often is in CI). Empty strings never
    match. *)

val run_target : ?commit:string -> jobs:int -> Targets.t -> Record.t
(** Execute one target under freshly-reset, enabled Obs (pass cache
    cleared; prior enablement restored afterwards) and package the
    result: wall times from the target, counters via
    {!Shell_util.Obs.diffable_counters} with {!Targets.extra_counters}
    pinned, spans via {!Shell_util.Obs.span_aggregate} under a
    ["bench.<name>"] root span. *)

type opts = {
  targets : string list;  (** empty = every registered target *)
  jobs : int option;  (** default {!Shell_util.Pool.default_jobs} *)
  history : string option;  (** default [BENCH_HISTORY.jsonl] in the cwd *)
  record : bool;  (** append the new records to the history *)
  check : bool;  (** diff against the last committed record per target *)
  report : string option;  (** write the HTML trend page here *)
  allowlist : string option;  (** intentional-change patterns file *)
  time_tolerance : float option;  (** e.g. [0.5] = +-50%; off if absent *)
  commit : string option;  (** override {!commit_id} *)
  against : string option;
      (** [--check] baseline selector: [Some "merge-base"] diffs
          against the last history record whose commit prefix-matches
          {!merge_base_commit}; any other string is taken as a commit
          (prefix) directly. When the spec cannot be resolved or no
          record matches it, a warning goes to [out] and the last
          record per target is used, as with [None]. *)
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
