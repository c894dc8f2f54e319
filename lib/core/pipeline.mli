(** The SheLL flow as a staged pass pipeline.

    The eight steps of Fig. 4 — connectivity, selection, extraction,
    synthesis, PnR, emission, shrinking, overhead — plus a final
    diagnostics-only [lint] pass are named passes, each consuming and
    producing fields of a staged {!artifacts}
    record. {!execute} runs them in order under a [pipeline]
    {!Shell_util.Obs} span, one child span per pass carrying its wall
    time, a [cache_hit] flag and the pass's counters (computed only
    while Obs is enabled), and stops at the first pass that raises
    {!Shell_util.Diag.Error}: the outcome then carries the diagnostic
    (stamped with the failing pass) alongside every artifact produced
    before it.

    Pass outputs are memoized in a process-wide cache keyed by a
    fingerprint of each pass's inputs, so re-running a flow that only
    changed a downstream input (a different selection on the same
    netlist, a different seed on the same mapping) reuses the upstream
    results. Passes are pure functions of their fingerprinted inputs,
    which keeps cached and uncached executions byte-identical — the
    property [Explore.search] and the Table VI sweep rely on. Disable
    with [SHELL_PASS_CACHE=0] (or [~use_cache:false]). *)

type target =
  | Fixed of { route : string list; lgc : string list; label : string }
      (** origin-substring selection (the TfR columns) *)
  | Auto of { coeffs : Score.coeffs; lgc_depth : int }
      (** scored selection; [lgc_depth] 0 is the SheLL constraint *)
  | Route_with_lgc_depth of { route : string list; depth : int }
      (** Table VII methodology: fixed ROUTE, best LGC at a distance *)

type config = {
  style : Shell_fabric.Style.t;
  target : target;
  shrink : bool;  (** step 8 on/off *)
  seed : int;
  max_luts : float;  (** budget for [Auto] selection *)
}

val shell_config : ?target:target -> unit -> config
(** SheLL defaults: FABulous + MUX chains, auto (c5) selection at
    depth 0, shrinking on. *)

type artifacts = {
  config : config;
  original : Shell_netlist.Netlist.t;
  fingerprint : string;  (** structural fingerprint of [original] *)
  analysis : Connectivity.t option;
  choice : Selection.choice option;
  cut : Extraction.cut option;
  mapped : Synthesize.mapped option;
  pnr : Shell_pnr.Pnr.result option;
  emitted : Shell_fabric.Emit.t option;
  timing : Shell_netlist.Netlist.t option;
      (** topologically-orderable twin of the emission *)
  feedthroughs : int option;
  resources : Shell_fabric.Resources.t option;
  overhead : Overhead.t option;
  locked_full : Shell_netlist.Netlist.t option;
  lint : Shell_lint.Lint.report option;
      (** static-analysis report over the locked result (never aborts
          the flow; see {!Shell_lint.Rules}) *)
}
(** Staged record: a pass fills its fields and leaves the rest. After
    an aborted execution the fields of every completed pass are still
    set. *)

type outcome = {
  artifacts : artifacts;
  failed : Shell_util.Diag.t option;  (** [Some] when a pass aborted *)
}

val pass_names : string list
(** The nine pass names, in execution order. *)

val execute :
  ?use_cache:bool ->
  ?strict_fit:bool ->
  ?fabric:Shell_fabric.Fabric.t ->
  config ->
  Shell_netlist.Netlist.t ->
  outcome
(** Run the pipeline. Never raises on pass failure — the diagnostic
    lands in [failed]. [~strict_fit] turns a PnR fit-check failure
    into an abort (diagnostic carries the typed
    {!Shell_fabric.Fabric.Shortage}); the default preserves the
    legacy behavior of reporting the shortage in
    [result.fit]. [~fabric] pins the fabric (skipping the sizing/grow
    loop) — used with [~strict_fit] to force a fit failure. *)

val lint_subject :
  original:Shell_netlist.Netlist.t ->
  analysis:Connectivity.t ->
  choice:Selection.choice ->
  pnr:Shell_pnr.Pnr.result ->
  emitted:Shell_fabric.Emit.t ->
  resources:Shell_fabric.Resources.t ->
  shrunk:bool ->
  Shell_netlist.Netlist.t ->
  Shell_lint.Lint.subject
(** The subject the [lint] pass checks: the locked design with its
    selection origins, key, fabric, bitstream, used resources and PnR
    result. *)

val cache_stats : unit -> int * int
(** (hits, misses) since the last {!clear_cache}. *)

val clear_cache : unit -> unit

(** {1 Cache internals}

    The single-flight pass cache, exposed for the serve daemon's
    spill store and for tests that exercise claim/evict interleavings
    directly. Normal callers go through {!execute}. *)

type product =
  | P_analysis of Connectivity.t
  | P_choice of Selection.choice
  | P_cut of Extraction.cut
  | P_mapped of Synthesize.mapped
  | P_pnr of Shell_pnr.Pnr.result
  | P_emit of Shell_fabric.Emit.t * Shell_netlist.Netlist.t
  | P_shrink of int * Shell_fabric.Resources.t
  | P_overhead of Overhead.t * Shell_netlist.Netlist.t
  | P_lint of Shell_lint.Lint.report
      (** one cached pass output, keyed by [pass_name ^ "|" ^
          input_fingerprint] *)

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
(** Blob store for cache spill: [save key blob] / [load key]. Blobs
    are opaque marshalled pairs; failures on either side degrade to a
    cold cache and are never raised. *)

val set_store : store option -> unit
(** Attach (or detach, with [None]) the spill store. The serve daemon
    attaches a content-addressed on-disk store at startup so warm
    hits survive restarts. *)
