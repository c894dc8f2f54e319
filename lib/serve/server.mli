(** The `shell serve` daemon: a single-threaded event loop accepting
    length-prefixed JSON job requests (see {!Protocol}) over a Unix or
    TCP socket.

    Jobs pass an admission-control queue ({!Admission}: bounded
    depth, per-job priority, typed rejection) and run inline, one at
    a time — parallelism lives inside a job on the domain pool, and
    serializing jobs is what keeps outputs and cache-counter
    observations deterministic. Attaching a {!Store} spills the pass
    cache to disk so warm hits survive restarts. The metrics request
    answers with the Prometheus rendering of the live Obs registry,
    where the daemon keeps its job counters, per-kind job times, the
    queue depth gauge [serve_queue_depth] and the admission-to-run
    wait histogram [serve_queue_wait_us]. *)

type address = Unix_sock of string | Tcp of string * int

val address_of_string : string -> (address, string) result
(** Anything with a '/' (or no ':') is a Unix socket path;
    [host:port] (empty host = 127.0.0.1) is TCP. *)

val address_to_string : address -> string

type config = {
  address : address;
  queue_cap : int;  (** admission queue depth before rejection *)
  max_frame : int;  (** per-connection frame-size ceiling *)
  max_seconds : float;  (** clamp on per-job time budgets *)
  store_dir : string option;  (** pass-cache spill directory *)
  cache_max_bytes : int option;
      (** size cap on the spill store: when set (and [store_dir] is),
          {!Store.gc} prunes least-recently-read blobs back under the
          cap at daemon startup, before the store attaches *)
  log : bool;  (** stderr progress lines *)
}

val default_config : address -> config
(** queue 64 deep, {!Shell_util.Jsonw.default_max_frame}, 600 s job
    clamp, no spill store, no size cap, quiet. *)

val serve : ?on_ready:(unit -> unit) -> config -> unit
(** Run until a [Shutdown] request, then finish the jobs admitted
    before it (each still gets its answer), drain response buffers,
    close the socket (unlinking a Unix path), detach the store and
    restore the Obs enabled state. A [Submit] that arrives after the
    [Shutdown] is answered [Rejected] with reason ["shutting down"]
    and counted in [serve_jobs_rejected]. [on_ready] fires once the
    listening socket is bound — tests use it to synchronise. *)
