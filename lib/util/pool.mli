(** Fixed-size domain pool for the evaluation engine.

    The paper's evaluation grid — (benchmark x case) locking flows,
    SAT-attack runs, per-source Brandes passes, GA generations — is
    embarrassingly parallel. This pool runs such task batches on OCaml
    5 domains under a {e deterministic contract}:

    - results are collected into the output by input index, never by
      completion order;
    - stochastic tasks derive their randomness from {!task_rng}, which
      seeds from the task index alone;
    - if several tasks raise, the exception of the {e lowest} task
      index is re-raised (the one a sequential run would have hit
      first);
    - [jobs = 1] bypasses the pool entirely and runs in the caller.

    Consequently every parallel entry point in the code base produces
    byte-identical output at any job count, and the paper tables stay
    reproducible.

    The pool is a process-wide singleton of long-lived worker domains
    (created lazily, grown on demand, joined at exit), shared by every
    batch in flight. A batch submitted from inside a pool task (a
    nested batch) runs in parallel too: idle workers claim from the
    newest batch that still has unclaimed tasks, so an inner batch gets
    the domains its outer batch leaves idle. The submitter of a batch
    runs its own tasks first; while the last of them finish elsewhere
    it helps batches {e newer} than its own, running their tasks on its
    stack. Waits therefore only point at newer batches and cannot form
    a cycle, at any nesting depth.

    Because a waiting submitter may run a newer batch's task before it
    returns, code that holds a resource across a batch (a lock, a
    claimed cache entry) must not let a task of another batch block on
    that resource. *)

val default_jobs : unit -> int
(** Job count used when [?jobs] is omitted: the [SHELL_JOBS]
    environment variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]; clamped to [1, 64]. *)

val set_default_jobs : int -> unit
(** Override the default at runtime (the bench harness uses this to
    time the same workload at several job counts in one process). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f arr] is [Array.map f arr], evaluated on up to [jobs]
    domains. [f] must not depend on evaluation order. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List counterpart of [map] (input order preserved). *)

val task_rng : seed:int -> int -> Rng.t
(** [task_rng ~seed i] is the RNG for task [i] of a batch: a splitmix
    stream derived from [(seed, i)] only, independent of job count and
    scheduling. *)
