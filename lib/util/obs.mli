(** Deterministic metrics and hierarchical span telemetry.

    The paper's security story rests on attack {e effort} (DIS
    iterations, solver conflicts, timeout behaviour) and the overhead
    story on per-stage resource counts. [Obs] is the process-wide
    registry those layers report into: counters, gauges and
    fixed-log-bucket histograms, plus parent/child spans (the
    pipeline's per-pass wall time, cache hit and counters among
    them).

    {b Determinism contract.} Metric cells are sharded per domain
    (uncontended atomics) and merged at snapshot time in {e
    registration} order — module-initialization order, which is fixed
    for a given binary. Metrics registered with [~stable:true] promise
    a value that is a pure function of the work submitted — never of
    wall-clock time or scheduling — so a [stable_only] snapshot is
    byte-identical across [SHELL_JOBS] settings (the property CI
    byte-diffs). Timing histograms, cache hit/miss counts and anything
    else racy registers with [~stable:false] and is excluded from
    stable snapshots.

    {b Cost.} Collection is disabled by default; every recording
    entry point is a single atomic-flag load and branch when disabled
    (no allocation, no time syscalls). Enable with {!set_enabled}, or
    for a whole process with [SHELL_METRICS=FILE], which also writes
    a snapshot at process exit: Prometheus text when [FILE] ends in
    [.prom], JSON otherwise; [SHELL_METRICS_STABLE=1] restricts it to
    stable metrics. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Metrics} *)

type counter
type gauge
type histogram

val counter : ?stable:bool -> help:string -> string -> counter
(** Register a monotonic counter. [stable] (default [false]) declares
    the merged value deterministic across job counts; name must be
    unique. Registration is expected at module-initialization time so
    the registry order is fixed. *)

val incr : counter -> unit
val add : counter -> int -> unit

val gauge : ?stable:bool -> help:string -> string -> gauge
val set : gauge -> int -> unit

val histogram : ?stable:bool -> help:string -> string -> histogram
(** Fixed log-bucket histogram over non-negative integers. Bucket [0]
    holds values [<= 1]; bucket [i >= 1] holds values in
    [(2^(i-1), 2^i]]; the last bucket also absorbs the overflow. *)

val observe : histogram -> int -> unit

val observe_us : histogram -> float -> unit
(** Record a duration in seconds as whole microseconds. *)

val nbuckets : int
(** Buckets per histogram (the last is the overflow bucket). *)

val bucket_of : int -> int
(** The bucket index a value lands in (exposed for tests). *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { buckets : int array; count : int; sum : int }
      (** [buckets] are per-bucket (non-cumulative) counts. *)

type sample = { name : string; help : string; stable : bool; value : value }

val snapshot : unit -> sample list
(** Merged view of every registered metric, in registration order. *)

val to_json : ?stable_only:bool -> sample list -> string
(** [{"metrics": [{"name": .., "type": .., "stable": .., "value"|
    "buckets"/"count"/"sum": ..}, ..]}], rendered via {!Jsonw}. *)

val json : ?stable_only:bool -> sample list -> Jsonw.t

val to_prometheus : ?stable_only:bool -> sample list -> string
(** Prometheus text exposition; metric names are prefixed [shell_] and
    sanitized to the Prometheus charset (anything outside
    [[a-zA-Z0-9_:]], e.g. dots, becomes [_]), HELP text escapes
    backslash and newline, histogram buckets carry cumulative [le]
    labels at powers of two. An empty sample list renders as [""]. *)

val diffable_counters : ?extra:string list -> sample list -> (string * int) list
(** Snapshot in diffable record form: every stable metric — plus any
    whose name is listed in [extra], for counters that are deterministic
    under a specific capped workload even though registered unstable —
    flattened to name-sorted [(name, value)] pairs. Histograms
    contribute ["name.count"] and ["name.sum"]. This is the byte-
    diffable section of a bench-history record. *)

val write_file : string -> unit
(** Snapshot now and write to a path ([.prom] selects the Prometheus
    exposition, anything else JSON), honoring [SHELL_METRICS_STABLE]. *)

(** {1 Hierarchical spans} *)

type span = {
  name : string;
  seconds : float;
  counters : (string * int) list;  (** in recording order *)
  children : span list;  (** in creation order *)
}

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk under a named span. Spans nest per domain: a span
    opened while another is open on the same domain becomes its child;
    outermost spans are appended to the global root list — unless the
    domain runs under a borrowed {!context}, in which case they attach
    to the lending span. When disabled this is exactly [f ()]. *)

val with_root_span : string -> (unit -> 'a) -> 'a * span option
(** [with_root_span name f] runs [f] under a fresh root span, on an
    empty local stack (any span already open on the calling domain is
    not its parent), and returns the finished root to the caller
    instead of publishing it to {!spans}: a long-lived process (the
    serve daemon) gets back exactly its own job's tree. [None] when
    disabled. If [f] raises, the span is dropped. *)

val span_add : string -> int -> unit
(** Attach a named counter to the innermost open span of the calling
    domain, or to the borrowed {!context} parent when no local span is
    open (no-op when disabled or outside both). *)

(** {2 Cross-domain span context}

    A fan-out (the domain pool) would otherwise sever the span tree:
    spans opened inside worker tasks have no open parent on the worker
    and become roots, so the tree's shape depends on the job count.
    The submitting side captures {!context} and runs each task under
    {!with_context}; spans and counters completing at the task's top
    level then attach to the submitter's open span — same tree shape
    at any [SHELL_JOBS]. A domain may run a task while spans of its own
    are open (a pool submitter helping a nested batch while it waits);
    {!with_context} keeps the task's spans out of them. *)

type context
(** The innermost open span of the calling domain (possibly itself
    borrowed), or nothing. *)

val context : unit -> context

val with_context : context -> (unit -> 'a) -> 'a
(** Run [f] with an empty local span stack whose overflow parent is
    [ctx]; with an empty [ctx], spans completing at [f]'s top level
    become roots. The caller's own stack is saved and restored. When
    recording is disabled this is exactly [f ()]. *)

val spans : unit -> span list
(** Completed root spans, oldest first. *)

val take_spans : unit -> span list
(** {!spans}, removing them from the recorder. *)

val pp_spans : Format.formatter -> span list -> unit
(** Indented tree, one line per span: wall time and counters. *)

val span_aggregate : span list -> (string * int) list
(** Deterministic span-{e structure} export: sorted [(key, value)]
    pairs where a slash-joined path key (["pipeline/pnr/pnr.attempt"])
    counts invocations of that path and a ["path#counter"] key sums the
    {!span_add} values recorded there. No elapsed times, merged across
    identical paths — byte-diffable across job counts whenever the work
    submitted is deterministic. *)

val reset : unit -> unit
(** Zero every metric and drop completed spans (tests, bench). Leaves
    enablement and the registry itself untouched. *)
