(** The SheLL framework: the full 8-step redaction flow of Fig. 4,
    parameterizable enough to express the paper's baselines
    (Tables IV–VII cases) as configurations of the same machinery.

    Steps: (1–2) connectivity analysis and scoring, (3) sub-circuit
    selection, (4) LGC/ROUTE decoupling, (5) dual synthesis, (6–7)
    fabric sizing / place-and-route fit loop, (8) post-bitstream
    shrinking, plus the splice that rebuilds the full locked design.

    {!run} runs them as nine named passes — [connectivity],
    [selection], [extraction], [synthesis], [pnr], [emit], [shrink],
    [overhead] and a diagnostics-only [lint] — each through
    {!Pipeline.pass}, which memoizes its product in the pass cache
    under a fingerprint of the pass's inputs and records its span. *)

type target =
  | Fixed of { route : string list; lgc : string list; label : string }
      (** origin-substring selection (the TfR columns) *)
  | Auto of { coeffs : Score.coeffs; lgc_depth : int }
      (** scored selection under {!Selection.auto}'s LUT budget;
          [lgc_depth] 0 is the SheLL constraint *)
  | Route_with_lgc_depth of { route : string list; depth : int }
      (** Table VII methodology: fixed ROUTE selection, best LGC
          companion at exactly [depth] block hops *)

type config = {
  style : Shell_fabric.Style.t;
  target : target;
  shrink : bool;  (** step 8 on/off *)
  seed : int;
}

val shell_config : ?target:target -> unit -> config
(** SheLL defaults: FABulous + MUX chains, auto (c5) selection at
    depth 0, shrinking on. *)

type result = {
  config : config;
  original : Shell_netlist.Netlist.t;
  analysis : Connectivity.t;
  choice : Selection.choice;
  cut : Extraction.cut;
  mapped : Synthesize.mapped;
  pnr : Shell_pnr.Pnr.result;
  emitted : Shell_fabric.Emit.t;
  resources : Shell_fabric.Resources.t;  (** shrunk or full capacity *)
  overhead : Overhead.t;
  locked_full : Shell_netlist.Netlist.t;
  lint : Shell_lint.Lint.report;
      (** static-analysis report over the locked result *)
  verdicts : Pipeline.verdict_slot;
      (** where {!verify} keeps its verdicts for this run's products *)
}

val run :
  ?use_cache:bool ->
  ?strict_fit:bool ->
  ?fabric:Shell_fabric.Fabric.t ->
  config ->
  Shell_netlist.Netlist.t ->
  result
(** Run the nine passes in order under a [pipeline]
    {!Shell_util.Obs} span, one child span per pass carrying its wall
    time, a [cache_hit] flag and the pass's counters (computed only
    while Obs is enabled). The first pass that fails raises
    {!Shell_util.Diag.Error} naming it.

    Pass products come from the process-wide pass cache when a pass's
    inputs were seen before (a different selection on the same
    netlist, a different seed on the same mapping reuse the upstream
    passes); passes are pure functions of their fingerprinted inputs,
    so cached and uncached runs are byte-identical. [~use_cache:false]
    (or [SHELL_PASS_CACHE=0]) bypasses the cache. [~strict_fit] turns
    a PnR fit-check failure into an abort at [pnr] whose diagnostic
    carries the typed {!Shell_fabric.Fabric.Shortage}; by default the
    shortage is only reported in [pnr.fit]. [~fabric] pins the fabric,
    skipping the sizing/grow loop. *)

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

val locked_sub : result -> Shell_locking.Locked.t
(** The attack surface: the redacted block as a locked netlist whose
    correct key is the bitstream. *)

val verify : ?runs:int -> ?cycles:int -> result -> bool
(** End-to-end check: the reassembled design under the correct
    bitstream sequentially matches the original ([runs] random runs of
    [cycles] cycles each).

    A verdict is reused, without simulating, when an earlier call
    checked the very same [original], [locked_full] and [emitted]
    (physical equality) at the same [runs] and [cycles], and the
    in-memory pass-cache slot of the [overhead] product holding that
    [locked_full] is still there: two runs of one config on one design
    that hit the memory cache verify once. Every other call simulates:
    a copy of the result with another [emitted] (an inverted bitstream,
    say), [original] or [locked_full], even an equal one, another
    depth, a run with the cache off, products loaded from the spill
    store (verdicts are never spilled), and anything after
    {!Pipeline.clear_cache} or the cache's cap wipe. Each call that
    simulates counts in the unstable Obs counter [flow_verifications]. *)

val pp_summary : Format.formatter -> result -> unit
