module Netlist = Shell_netlist.Netlist
module Equiv = Shell_netlist.Equiv
module Style = Shell_fabric.Style
module Fabric = Shell_fabric.Fabric
module Emit = Shell_fabric.Emit
module Bitstream = Shell_fabric.Bitstream
module Pnr = Shell_pnr.Pnr
module Locked = Shell_locking.Locked
module Diag = Shell_util.Diag
module Obs = Shell_util.Obs

type target = Pipeline.target =
  | Fixed of { route : string list; lgc : string list; label : string }
  | Auto of { coeffs : Score.coeffs; lgc_depth : int }
  | Route_with_lgc_depth of { route : string list; depth : int }

type config = Pipeline.config = {
  style : Style.t;
  target : target;
  shrink : bool;
  seed : int;
  max_luts : float;
}

let shell_config = Pipeline.shell_config

type result = {
  config : config;
  original : Shell_netlist.Netlist.t;
  analysis : Connectivity.t;
  choice : Selection.choice;
  cut : Extraction.cut;
  mapped : Synthesize.mapped;
  pnr : Shell_pnr.Pnr.result;
  emitted : Shell_fabric.Emit.t;
  resources : Shell_fabric.Resources.t;
  overhead : Overhead.t;
  locked_full : Shell_netlist.Netlist.t;
  lint : Shell_lint.Lint.report;
  verdicts : Pipeline.verdict_slot;
}

let of_outcome (o : Pipeline.outcome) =
  (match o.Pipeline.failed with Some d -> raise (Diag.Error d) | None -> ());
  let a = o.Pipeline.artifacts in
  let the field = function
    | Some x -> x
    | None -> Diag.failf "Flow.run: pipeline left no %s artifact" field
  in
  {
    config = a.Pipeline.config;
    original = a.Pipeline.original;
    analysis = the "analysis" a.Pipeline.analysis;
    choice = the "choice" a.Pipeline.choice;
    cut = the "cut" a.Pipeline.cut;
    mapped = the "mapped" a.Pipeline.mapped;
    pnr = the "pnr" a.Pipeline.pnr;
    emitted = the "emitted" a.Pipeline.emitted;
    resources = the "resources" a.Pipeline.resources;
    overhead = the "overhead" a.Pipeline.overhead;
    locked_full = the "locked_full" a.Pipeline.locked_full;
    lint = the "lint" a.Pipeline.lint;
    verdicts = a.Pipeline.verdicts;
  }

let run config original = of_outcome (Pipeline.execute config original)

let locked_sub r =
  {
    Locked.locked = r.emitted.Emit.locked;
    key = Bitstream.bits r.emitted.Emit.bitstream;
    scheme = "efpga-redaction";
  }

let m_verifications =
  Obs.counter ~help:"Flow.verify calls that simulated (reused verdicts excluded)"
    "flow_verifications"

let verify ?(runs = 8) ?(cycles = 24) r =
  Pipeline.verdict r.verdicts ~original:r.original ~locked_full:r.locked_full
    ~emitted:r.emitted ~runs ~cycles
  @@ fun () ->
  Obs.incr m_verifications;
  (* bind the bitstream first: cyclic-style emissions cannot be
     simulated until the configuration collapses the decoy routing *)
  let key = Bitstream.bits r.emitted.Emit.bitstream in
  let bound = Shell_netlist.Specialize.bind_keys r.locked_full key in
  match Equiv.check_sequential ~runs ~cycles r.original bound with
  | Equiv.Equivalent -> true
  | Equiv.Counterexample _ -> false

let pp_summary ppf r =
  Format.fprintf ppf
    "@[<v>style: %s@,TfR: %s@,coverage: %.2f  est LUTs: %.1f@,mapped: %d LUTs (%d levels), %d chain mux4, %d mux2, %d FFs@,fabric: %a  fit: %s  utilization: %.2f@,key bits: %d@,overhead: %a@]"
    (Style.name r.config.style) r.choice.Selection.label
    r.choice.Selection.coverage r.choice.Selection.lut_estimate
    r.mapped.Synthesize.luts r.mapped.Synthesize.lut_levels
    r.mapped.Synthesize.chain_mux4 r.mapped.Synthesize.chain_mux2
    r.mapped.Synthesize.ffs Fabric.pp r.pnr.Pnr.fabric
    (match r.pnr.Pnr.fit with Ok () -> "yes" | Error _ -> "NO")
    r.pnr.Pnr.utilization
    r.emitted.Emit.used.Shell_fabric.Resources.config_bits
    Overhead.pp r.overhead
