(** The SheLL framework: the full 8-step redaction flow of Fig. 4,
    parameterizable enough to express the paper's baselines
    (Tables IV–VII cases) as configurations of the same machinery.

    Steps: (1–2) connectivity analysis and scoring, (3) sub-circuit
    selection, (4) LGC/ROUTE decoupling, (5) dual synthesis, (6–7)
    fabric sizing / place-and-route fit loop, (8) post-bitstream
    shrinking, plus the splice that rebuilds the full locked design. *)

type target = Pipeline.target =
  | Fixed of { route : string list; lgc : string list; label : string }
      (** origin-substring selection (the TfR columns) *)
  | Auto of { coeffs : Score.coeffs; lgc_depth : int }
      (** scored selection; [lgc_depth] 0 is the SheLL constraint *)
  | Route_with_lgc_depth of { route : string list; depth : int }
      (** Table VII methodology: fixed ROUTE selection, best LGC
          companion at exactly [depth] block hops *)

type config = Pipeline.config = {
  style : Shell_fabric.Style.t;
  target : target;
  shrink : bool;  (** step 8 on/off *)
  seed : int;
  max_luts : float;  (** budget for [Auto] selection *)
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

val run : config -> Shell_netlist.Netlist.t -> result
(** The composed {!Pipeline}: executes the nine passes and packs the
    staged artifacts into a [result]. Raises {!Shell_util.Diag.Error}
    (naming the failing pass) if any pass aborts. *)

val of_outcome : Pipeline.outcome -> result
(** Pack a completed {!Pipeline.execute} outcome into a [result];
    raises {!Shell_util.Diag.Error} if the outcome failed. *)

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
