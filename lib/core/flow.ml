module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Equiv = Shell_netlist.Equiv
module Style = Shell_fabric.Style
module Fabric = Shell_fabric.Fabric
module Emit = Shell_fabric.Emit
module Resources = Shell_fabric.Resources
module Bitstream = Shell_fabric.Bitstream
module Pnr = Shell_pnr.Pnr
module Lint = Shell_lint.Lint
module Lint_rules = Shell_lint.Rules
module Locked = Shell_locking.Locked
module Diag = Shell_util.Diag
module Obs = Shell_util.Obs

type target =
  | Fixed of { route : string list; lgc : string list; label : string }
  | Auto of { coeffs : Score.coeffs; lgc_depth : int }
  | Route_with_lgc_depth of { route : string list; depth : int }

type config = { style : Style.t; target : target; shrink : bool; seed : int }

let shell_config
    ?(target = Auto { coeffs = Score.shell_choice; lgc_depth = 0 }) () =
  { style = Style.Fabulous_muxchain; target; shrink = true; seed = 0x51e11 }

type result = {
  config : config;
  original : Netlist.t;
  analysis : Connectivity.t;
  choice : Selection.choice;
  cut : Extraction.cut;
  mapped : Synthesize.mapped;
  pnr : Pnr.result;
  emitted : Emit.t;
  resources : Resources.t;
  overhead : Overhead.t;
  locked_full : Netlist.t;
  lint : Lint.report;
  verdicts : Pipeline.verdict_slot;
}

(* ------------------------------------------------------------------ *)
(* Input fingerprints *)

let target_key = function
  | Fixed { route; lgc; label } ->
      Printf.sprintf "fixed:%s:%s:%s" label (String.concat "," route)
        (String.concat "," lgc)
  | Auto { coeffs = c; lgc_depth } ->
      Printf.sprintf "auto:%h,%h,%h,%h,%h,%h:%d" c.Score.alpha c.Score.beta
        c.Score.gamma c.Score.lambda c.Score.xi c.Score.sigma lgc_depth
  | Route_with_lgc_depth { route; depth } ->
      Printf.sprintf "rwd:%s:%d" (String.concat "," route) depth

let fabric_key = function
  | None -> "-"
  | Some (f : Fabric.t) ->
      Printf.sprintf "%s:%dx%d:%d" (Style.name f.Fabric.style) f.Fabric.cols
        f.Fabric.rows f.Fabric.chain_slots

let choice_key (c : Selection.choice) =
  Printf.sprintf "%s|%s"
    (String.concat "," (List.map string_of_int c.Selection.route_blocks))
    (String.concat "," (List.map string_of_int c.Selection.lgc_blocks))

(* ------------------------------------------------------------------ *)

(* Table VII mechanism: ROUTE <-> LGC traffic that has to leave the
   fabric, traverse the excluded middle logic and come back. Only
   cross-family paths count: a directly-connected (depth-0) pick
   keeps this traffic internal and pays nothing. *)
let count_feedthroughs original (cut : Extraction.cut) route_origins =
  let member = Hashtbl.create 64 in
  List.iter (fun ci -> Hashtbl.replace member ci ()) cut.Extraction.cells;
  let family ci =
    if Cell.origin_matches route_origins (Netlist.cell original ci) then `Route
    else `Lgc
  in
  (* family of each boundary-output driver / boundary-input reader *)
  let in_family = Hashtbl.create 32 in
  List.iter
    (fun (_, net) ->
      List.iter
        (fun ci ->
          if Hashtbl.mem member ci then Hashtbl.replace in_family net (family ci))
        (Netlist.fanout original net))
    cut.Extraction.input_binding;
  let count = ref 0 in
  List.iter
    (fun (_, start) ->
      match Netlist.driver original start with
      | None -> ()
      | Some drv when not (Hashtbl.mem member drv) -> ()
      | Some drv ->
          let out_fam = family drv in
          let seen = Hashtbl.create 64 in
          let hit = ref false in
          let rec go net depth =
            if depth >= 0 && not !hit then begin
              (match Hashtbl.find_opt in_family net with
              | Some fam when fam <> out_fam && net <> start -> hit := true
              | Some _ | None -> ());
              if not !hit then
                List.iter
                  (fun ci ->
                    if
                      (not (Hashtbl.mem member ci)) && not (Hashtbl.mem seen ci)
                    then begin
                      Hashtbl.replace seen ci ();
                      let c = Netlist.cell original ci in
                      if not (Cell.is_sequential c.Cell.kind) then
                        go c.Cell.out (depth - 1)
                    end)
                  (Netlist.fanout original net)
            end
          in
          go start 6;
          if !hit then incr count)
    cut.Extraction.output_binding;
  !count

let routed_nets nl =
  let n = ref 0 in
  for net = 0 to Netlist.num_nets nl - 1 do
    if Netlist.driver nl net <> None && Netlist.fanout nl net <> [] then incr n
  done;
  !n

let lint_subject ~original ~analysis ~choice ~pnr ~emitted ~resources
    ~shrunk locked_full =
  let route_origins = Selection.route_origins analysis choice in
  let lgc_origins =
    List.map
      (fun i -> analysis.Connectivity.blocks.(i).Connectivity.name)
      choice.Selection.lgc_blocks
  in
  Lint.subject ~name:(Netlist.name original)
    ~key:(Bitstream.bits emitted.Emit.bitstream)
    ~selection:{ Lint.design = original; route_origins; lgc_origins }
    ~fabric:pnr.Pnr.fabric ~bitstream:emitted.Emit.bitstream ~used:resources
    ~pnr ~shrunk locked_full

(* ------------------------------------------------------------------ *)
(* The nine passes, each through [Pipeline.pass]. Keys are thunks, so a
   run with the cache off takes no fingerprints. *)

let run ?(use_cache = true) ?(strict_fit = false) ?fabric config original =
  let cached = use_cache && Pipeline.cache_enabled () in
  let pass name key compute view = Pipeline.pass ~cached name key compute view in
  let style = config.style and seed = config.seed in
  let fingerprint () = Netlist.fingerprint original in
  (* every input of shrink, overhead and lint — pnr fabric, emission,
     cut, selection origins, locked netlist — is a function of these
     determinants *)
  let downstream =
    lazy
      (Printf.sprintf "%s|%s|%s|%d|%b|%s" (fingerprint ())
         (target_key config.target) (Style.name style) seed config.shrink
         (fabric_key fabric))
  in
  let downstream () = Lazy.force downstream in
  Obs.with_span "pipeline" @@ fun () ->
  let analysis =
    pass "connectivity" fingerprint
      (fun () -> Pipeline.P_analysis (Connectivity.analyze original))
      (function
        | Pipeline.P_analysis t ->
            ( t,
              fun () ->
                [
                  ("cells", Netlist.num_cells original);
                  ("nets", Netlist.num_nets original);
                  ("blocks", Array.length t.Connectivity.blocks);
                ] )
        | p -> Pipeline.mismatch p)
  in
  let choice =
    pass "selection"
      (fun () ->
        Printf.sprintf "%s|%s" (fingerprint ()) (target_key config.target))
      (fun () ->
        Pipeline.P_choice
          (match config.target with
          | Fixed { route; lgc; label } ->
              Selection.fixed analysis ~label ~route ~lgc ()
          | Auto { coeffs; lgc_depth } ->
              Selection.auto analysis ~coeffs ~lgc_depth ()
          | Route_with_lgc_depth { route; depth } ->
              Selection.with_lgc_depth analysis ~route ~depth))
      (function
        | Pipeline.P_choice c ->
            ( c,
              fun () ->
                [
                  ("route_blocks", List.length c.Selection.route_blocks);
                  ("lgc_blocks", List.length c.Selection.lgc_blocks);
                  ( "est_luts",
                    int_of_float (Float.round c.Selection.lut_estimate) );
                  ("coverage_pct", int_of_float (100. *. c.Selection.coverage));
                ] )
        | p -> Pipeline.mismatch p)
  in
  let cut =
    pass "extraction"
      (fun () -> Printf.sprintf "%s|%s" (fingerprint ()) (choice_key choice))
      (fun () ->
        Pipeline.P_cut
          (Extraction.extract original
             ~member:(Selection.member analysis choice)))
      (function
        | Pipeline.P_cut c ->
            ( c,
              fun () ->
                [
                  ("cells", List.length c.Extraction.cells);
                  ("in_ports", List.length c.Extraction.input_binding);
                  ("out_ports", List.length c.Extraction.output_binding);
                ] )
        | p -> Pipeline.mismatch p)
  in
  let mapped =
    pass "synthesis"
      (fun () ->
        Printf.sprintf "%s|%s"
          (Netlist.fingerprint cut.Extraction.sub)
          (Style.name style))
      (fun () ->
        let route_origins = Selection.route_origins analysis choice in
        Pipeline.P_mapped
          (Synthesize.run ~style ~route_origins cut.Extraction.sub))
      (function
        | Pipeline.P_mapped m ->
            ( m,
              fun () ->
                [
                  ("luts", m.Synthesize.luts);
                  ("lut_levels", m.Synthesize.lut_levels);
                  ("chain_mux4", m.Synthesize.chain_mux4);
                  ("chain_mux2", m.Synthesize.chain_mux2);
                  ("chain_stages", m.Synthesize.chain_stages);
                  ("ffs", m.Synthesize.ffs);
                ] )
        | p -> Pipeline.mismatch p)
  in
  let pnr =
    pass "pnr"
      (fun () ->
        Printf.sprintf "%s|%s|%d|%s"
          (Netlist.fingerprint mapped.Synthesize.netlist)
          (Style.name style) seed (fabric_key fabric))
      (fun () ->
        Pipeline.P_pnr
          (match fabric with
          | Some f -> Pnr.run ~seed f mapped.Synthesize.netlist
          | None -> Pnr.fit_loop ~seed ~style mapped.Synthesize.netlist))
      (function
        | Pipeline.P_pnr r ->
            ( r,
              fun () ->
                [
                  ("tiles", Fabric.clb_tiles r.Pnr.fabric);
                  ("used_tiles", r.Pnr.placement.Pnr.used_tiles);
                  ("used_luts", r.Pnr.placement.Pnr.used_luts);
                  ("routed_nets", routed_nets mapped.Synthesize.netlist);
                  ("wirelength", r.Pnr.routes.Pnr.wirelength);
                  ("fit", match r.Pnr.fit with Ok () -> 1 | Error _ -> 0);
                ] )
        | p -> Pipeline.mismatch p)
  in
  (if strict_fit then
     match Pnr.diag_of_fit ~netlist:mapped.Synthesize.netlist pnr with
     | None -> ()
     | Some d -> raise (Diag.Error { d with Diag.pass = Some "pnr" }));
  let emitted, timing =
    pass "emit"
      (fun () ->
        Printf.sprintf "%s|%s|%d"
          (Netlist.fingerprint mapped.Synthesize.netlist)
          (Style.name style) seed)
      (fun () ->
        let emitted = Emit.emit ~style ~seed mapped.Synthesize.netlist in
        (* acyclic twin for timing *)
        let timing =
          if (Style.params style).Style.cyclic_routing then
            (Emit.emit ~style ~seed ~force_acyclic:true
               mapped.Synthesize.netlist)
              .Emit.locked
          else emitted.Emit.locked
        in
        Pipeline.P_emit (emitted, timing))
      (function
        | Pipeline.P_emit (e, t) ->
            ( (e, t),
              fun () ->
                [
                  ("config_bits", e.Emit.used.Resources.config_bits);
                  ("locked_cells", Netlist.num_cells e.Emit.locked);
                  ("cycle_blocks", List.length e.Emit.cycle_blocks);
                ] )
        | p -> Pipeline.mismatch p)
  in
  let feedthroughs, resources =
    pass "shrink" downstream
      (fun () ->
        let route_origins = Selection.route_origins analysis choice in
        let feedthroughs = count_feedthroughs original cut route_origins in
        let base =
          if config.shrink then
            Fabric.shrink pnr.Pnr.fabric ~used:emitted.Emit.used
          else Fabric.capacity pnr.Pnr.fabric
        in
        Pipeline.P_shrink
          ( feedthroughs,
            {
              base with
              Resources.feedthrough_tracks = feedthroughs;
              io_pins = base.Resources.io_pins + (2 * feedthroughs);
            } ))
      (function
        | Pipeline.P_shrink (ft, r) ->
            ( (ft, r),
              fun () ->
                [
                  ("config_bits", r.Resources.config_bits);
                  ("feedthrough_tracks", r.Resources.feedthrough_tracks);
                  ("io_pins", r.Resources.io_pins);
                ] )
        | p -> Pipeline.mismatch p)
  in
  let overhead, locked_full =
    pass "overhead" downstream
      (fun () ->
        let overhead =
          Overhead.compute ~original ~sub:cut.Extraction.sub ~resources ~style
            ~timing_sub:timing ~feedthroughs ()
        in
        Pipeline.P_overhead
          ( overhead,
            Extraction.reassemble original cut ~replacement:emitted.Emit.locked
          ))
      (function
        | Pipeline.P_overhead (o, l) ->
            ( (o, l),
              fun () ->
                let milli x = int_of_float (Float.round (1000. *. x)) in
                [
                  ("area_milli", milli o.Overhead.area);
                  ("power_milli", milli o.Overhead.power);
                  ("delay_milli", milli o.Overhead.delay);
                ] )
        | p -> Pipeline.mismatch p)
  in
  let lint =
    pass "lint" downstream
      (fun () ->
        let subject =
          lint_subject ~original ~analysis ~choice ~pnr ~emitted ~resources
            ~shrunk:config.shrink locked_full
        in
        (* diagnostics only: findings land in the result and the
           per-rule Obs counters, they do not abort the flow *)
        Pipeline.P_lint (Lint.run ~rules:Lint_rules.all subject))
      (function
        | Pipeline.P_lint r ->
            ( r,
              fun () ->
                [
                  ("rules", List.length Lint_rules.all);
                  ("errors", r.Lint.errors);
                  ("warns", r.Lint.warns);
                  ("infos", r.Lint.infos);
                ] )
        | p -> Pipeline.mismatch p)
  in
  {
    config;
    original;
    analysis;
    choice;
    cut;
    mapped;
    pnr;
    emitted;
    resources;
    overhead;
    locked_full;
    lint;
    verdicts = Pipeline.slot ~cached "overhead" downstream;
  }

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
    r.emitted.Emit.used.Resources.config_bits
    Overhead.pp r.overhead
