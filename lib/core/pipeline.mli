(** The pass cache of the SheLL flow, and the runner {!Flow.run} puts
    each of its nine passes through.

    A pass's product is memoized in a process-wide cache under the
    pass name and a fingerprint of the pass's inputs, so re-running a
    flow that only changed a downstream input (a different selection
    on the same netlist, a different seed on the same mapping) reuses
    the upstream products. Passes are pure functions of their
    fingerprinted inputs, which keeps cached and uncached runs
    byte-identical — the property [Explore.search] and the Table VI
    sweep rely on. The cache also keeps {!Flow.verify}'s verdicts on
    the slot of the [overhead] product they checked, and can spill its
    products to an attached {!store}. Disable with
    [SHELL_PASS_CACHE=0] (or [Flow.run ~use_cache:false]). *)

val pass_names : string list
(** The nine pass names, in execution order. *)

type product =
  | P_analysis of Connectivity.t
  | P_choice of Selection.choice
  | P_cut of Extraction.cut
  | P_mapped of Synthesize.mapped
  | P_pnr of Shell_pnr.Pnr.result
  | P_emit of Shell_fabric.Emit.t * Shell_netlist.Netlist.t
      (** the emission and its topologically-orderable timing twin *)
  | P_shrink of int * Shell_fabric.Resources.t
      (** feedthrough tracks and the shrunk (or full) resources *)
  | P_overhead of Overhead.t * Shell_netlist.Netlist.t
      (** the A/P/D report and the reassembled locked design *)
  | P_lint of Shell_lint.Lint.report
      (** one cached pass output, keyed by [pass_name ^ "|" ^
          input_fingerprint]. The spill store reads products back at
          this type, so any change to a product type
          ({!Shell_netlist.Netlist.t} included) bumps the store's
          format tag (see {!store}). *)

val cache_enabled : unit -> bool
(** [false] when [SHELL_PASS_CACHE] is [0], empty or [false]. *)

val pass :
  cached:bool ->
  string ->
  (unit -> string) ->
  (unit -> product) ->
  (product -> 'a * (unit -> (string * int) list)) ->
  'a
(** [pass ~cached name key compute view] runs one pass under an Obs
    span [name], counted by the stable [pipeline_passes] counter.
    With [cached] it evaluates [key ()] (inside the span) and takes
    the product from the cache under [name ^ "|" ^ key ()], or claims
    that key single-flight, runs [compute ()] and publishes the
    product (re-opening the key if [compute] raises); without, it just
    runs [compute ()]. A diagnostic escaping [compute] is stamped with
    [name] ({!Shell_util.Diag.in_pass}). [view] projects the product
    to the pass's value and its span counters; while Obs is enabled
    the span gets [cache_hit] (1 on a hit) and then those counters. *)

val mismatch : product -> 'a
(** The [view] arm for a product of another pass, which a pass's key
    never holds: raises [Invalid_argument]. *)

type verdict_slot
(** Where {!Flow.verify} keeps the verdicts of one run: the in-memory
    pass-cache slot of the run's [overhead] product (the one holding
    [locked_full]), or nowhere when the run bypassed the cache. See
    {!verdict}. *)

val slot : cached:bool -> string -> (unit -> string) -> verdict_slot
(** [slot ~cached name key]: the cache slot {!pass} fills for [name]
    under [key ()], or nowhere without [cached]. *)

val clear_cache : unit -> unit
(** Empty the in-memory pass cache, verify verdicts included. An
    attached spill store keeps its blobs. *)

val verdict :
  verdict_slot ->
  original:Shell_netlist.Netlist.t ->
  locked_full:Shell_netlist.Netlist.t ->
  emitted:Shell_fabric.Emit.t ->
  runs:int ->
  cycles:int ->
  (unit -> bool) ->
  bool
(** [verdict slot ~original ~locked_full ~emitted ~runs ~cycles check]
    answers {!Flow.verify}: a verdict [check] already gave for these
    very products ([==] on [original], [locked_full] and [emitted])
    at this [runs] and [cycles], while [slot] still holds the product
    [locked_full] came from; otherwise [check ()], kept on the slot
    for the next call. Verdicts are memory-only: never spilled,
    dropped with their slot by {!clear_cache} and by the cap wipe,
    not counted by the [pipeline_cache_*] counters, and at most four
    per slot. *)

(** {1 Cache internals}

    The single-flight pass cache, exposed for the serve daemon's
    spill store and for tests that exercise claim/evict interleavings
    directly. Normal callers go through {!pass}. *)

val cache_cap : int
(** Entry ceiling; reaching it evicts all [Ready] entries (never
    in-flight claims — see {!cache_find}). *)

val cache_find : string -> product option
(** [Some p] on a hit (waiting out another domain's in-flight
    computation if needed, and consulting the attached spill store);
    [None] claims the key single-flight — the caller must follow up
    with {!cache_add} or {!cache_abort}. *)

val cache_add : string -> product -> unit
(** Publish a claimed key's product (and spill it to the attached
    store). Cap eviction drops only [Ready] entries, so a concurrent
    claim is never wiped. *)

val cache_abort : string -> unit
(** Re-open a claimed key after a failed computation so waiters retry
    it themselves. *)

val cache_slot : string -> [ `Ready | `Pending | `Absent ]
(** Observe a key's slot state (tests). *)

type store = {
  save : string -> string -> unit;
  load : string -> string option;
}
(** Blob store for cache spill: [save key blob] / [load key]. Every
    key handed to the store is a cache key prefixed with a format tag,
    bumped whenever a {!product} type changes, so a blob an older
    binary wrote is never looked up. Blobs are opaque marshalled
    pairs; failures on either side degrade to a cold cache and are
    never raised. *)

val set_store : store option -> unit
(** Attach (or detach, with [None]) the spill store. The serve daemon
    attaches a content-addressed on-disk store at startup so warm
    hits survive restarts. *)
