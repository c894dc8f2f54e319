(* Regenerates every table and figure of the paper's evaluation
   (DESIGN.md section 3 maps each to its modules), plus the ablations,
   the coefficient search, the attack portfolio and the scalar-vs-word
   simulation throughput.

   Usage: main.exe [table1|table4|table4-fast|table5|table6|table6-fast|
                    table7|fig1|fig2|fig3|fig4|ablation|explore|portfolio|
                    simulate|all]
   (default: all)

   Stdout is the artifact; the wall-time footer goes to stderr. Recorded
   perf history lives in `shell bench`, not here.

   Budgets here stand in for the paper's 48-hour SAT timeout: a case
   is reported "resilient" when the attack exhausts its budget.

   Parallel evaluation: the (benchmark x case) grids of Tables I and
   IV-VII and Fig. 1's scheme sweep run on the Shell_util.Pool domain
   pool (SHELL_JOBS=n, default all cores). Each grid cell renders its
   rows to a string off to the side and the strings are printed in grid
   order, so stdout is byte-identical at every job count; the wall-time
   footer goes to stderr for the same reason. Each task builds its own
   netlist: Netlist.t carries lazily-populated fanout/driver caches and
   must not be shared across domains. *)

module N = Shell_netlist
module F = Shell_fabric
module S = Shell_synth
module P = Shell_pnr
module L = Shell_locking
module A = Shell_attacks
module C = Shell_core
module Circ = Shell_circuits
module Pool = Shell_util.Pool

let bpf = Printf.bprintf

let with_output f =
  let buf = Buffer.create (1 lsl 16) in
  f buf;
  Buffer.contents buf

let heading out title =
  bpf out "\n%s\n%s\n" title (String.make (String.length title) '=')

let tfr (t : Circ.Catalog.tfr) =
  {
    C.Baselines.route = t.Circ.Catalog.route;
    lgc = t.Circ.Catalog.lgc;
    label = t.Circ.Catalog.label;
  }

let cases_of (e : Circ.Catalog.entry) =
  C.Baselines.all
    ~case1:(tfr e.Circ.Catalog.tfr_case1)
    ~case2:(tfr e.Circ.Catalog.tfr_case2)
    ~case3:(tfr e.Circ.Catalog.tfr_case3)
    ~shell:(tfr e.Circ.Catalog.tfr_shell)

(* Attack budget used to declare resilience in the tables. *)
let attack_budget = (`Dips 64, `Conflicts 120_000, `Seconds 6.0)

let unified_budget
    (`Dips max_dips, `Conflicts max_conflicts, `Seconds time_limit) =
  A.Attack.budget ~max_dips ~max_conflicts ~time_limit ()

(* The SheLL flow as an attack subject: oracle built from the extracted
   subcircuit, cycle-closing key patterns blocked up front. *)
let subject_of_result ?label (r : C.Flow.result) =
  A.Attack.subject ?label
    ~cycle_blocks:r.C.Flow.emitted.F.Emit.cycle_blocks
    ~original:r.C.Flow.cut.C.Extraction.sub (C.Flow.locked_sub r)

let run_sat_attack ?(budget = attack_budget) (r : C.Flow.result) =
  A.Sat_attack.attack.A.Attack.run (unified_budget budget)
    (subject_of_result r)

let resilience_tag = function
  | A.Attack.Broken (_, st) ->
      Printf.sprintf "BROKEN (%d DIPs)" st.A.Attack.iterations
  | A.Attack.Resilient st ->
      Printf.sprintf "resilient (%d DIPs, %d conflicts)" st.A.Attack.iterations
        st.A.Attack.conflicts
  | A.Attack.Inapplicable why -> Printf.sprintf "n/a (%s)" why

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [
    ("OpenFPGA", "1650 M2s", "650 DFFs", "-");
    ("FABulous (std cell)", "560 M4s + 80 M2s", "20 CFFs", "650");
    ("FABulous (std cell w/ mux chain)", "185 M4s + 63 M2s", "12 CFFs", "431");
  ]

let table1 out =
  heading out "Table I: Resource utilization, ROUTE circuit (8-AXI-channel Xbar)";
  let xbar = Circ.Axi_xbar.netlist () in
  bpf out "xbar: %d cells, route fraction %.2f\n\n"
    (N.Netlist.num_cells xbar)
    (S.Mux_chain.route_fraction xbar);
  bpf out "%-34s %-22s %-12s %s\n" "Tool" "Multiplexer" "Flip Flop" "Latch";
  let rows =
    Pool.map
      (fun style ->
        let nl = Circ.Axi_xbar.netlist () in
        let cfg =
          {
            (C.Flow.shell_config
               ~target:
                 (C.Flow.Fixed
                    { route = [ ":_xbar_route"; ":_xbar_arb" ]; lgc = []; label = "xbar" })
               ())
            with
            C.Flow.style;
            shrink = true;
          }
        in
        let r = C.Flow.run cfg nl in
        Format.asprintf "%a" F.Resources.pp_table1_row (style, r.C.Flow.resources))
      (Array.of_list F.Style.all)
  in
  Array.iter (fun row -> bpf out "%s\n" row) rows;
  bpf out "\npaper reported:\n";
  List.iter
    (fun (a, b, c, d) -> bpf out "%-34s %-22s %-12s %s\n" a b c d)
    paper_table1

(* ------------------------------------------------------------------ *)
(* Table IV                                                            *)
(* ------------------------------------------------------------------ *)

let paper_table4 =
  [
    ("PicoSoC", [ (1.74, 1.95, 2.11); (1.87, 1.97, 2.28); (1.71, 1.88, 1.94); (1.39, 1.45, 1.47) ]);
    ("AES", [ (2.11, 2.34, 3.15); (2.07, 2.33, 3.25); (1.98, 1.94, 2.22); (1.38, 1.51, 1.55) ]);
    ("FIR", [ (2.97, 3.11, 4.02); (3.17, 3.21, 4.14); (2.89, 2.99, 3.23); (1.66, 1.77, 1.82) ]);
    ("SPMV", [ (1.57, 1.73, 2.61); (1.69, 1.88, 2.74); (1.94, 2.03, 2.88); (1.36, 1.41, 1.52) ]);
    ("DLA", [ (1.41, 1.57, 2.34); (1.55, 1.72, 2.66); (1.60, 1.74, 2.44); (1.29, 1.33, 1.40) ]);
  ]

(* Flatten an (entry x case) grid into pool tasks, then print the rows
   back under their per-entry headers in grid order. *)
let grid_rows ~entries ~cases_of ~row =
  let tasks =
    Array.concat
      (List.mapi
         (fun ei e ->
           Array.of_list
             (List.mapi (fun ci case -> (ei, e, ci, case)) (cases_of e)))
         entries)
  in
  Pool.map (fun (_, e, ci, case) -> row e ci case) tasks

let table4 ?(attack = true) out =
  heading out "Table IV: Comparative (normalized) overhead, Cases 1-4";
  let entries = Circ.Catalog.all in
  let rows =
    grid_rows ~entries ~cases_of
      ~row:(fun (e : Circ.Catalog.entry) i (name, cfg) ->
        let nl = e.Circ.Catalog.netlist () in
        let paper = List.assoc e.Circ.Catalog.name paper_table4 in
        let r = C.Flow.run cfg nl in
        let pa, pp_, pd = List.nth paper i in
        let sec =
          if attack then "  SAT: " ^ resilience_tag (run_sat_attack r) else ""
        in
        Printf.sprintf "  %-32s A=%.2f P=%.2f D=%.2f   (paper %.2f/%.2f/%.2f)%s\n"
          name r.C.Flow.overhead.C.Overhead.area
          r.C.Flow.overhead.C.Overhead.power r.C.Flow.overhead.C.Overhead.delay
          pa pp_ pd sec)
  in
  let cursor = ref 0 in
  List.iter
    (fun (e : Circ.Catalog.entry) ->
      let nl = e.Circ.Catalog.netlist () in
      bpf out "\n%s (%s): %d cells\n" e.Circ.Catalog.name
        e.Circ.Catalog.description (N.Netlist.num_cells nl);
      List.iter
        (fun _ ->
          bpf out "%s" rows.(!cursor);
          incr cursor)
        (cases_of e))
    entries

(* ------------------------------------------------------------------ *)
(* Table V: same (ROUTE-based) TfR for every case                      *)
(* ------------------------------------------------------------------ *)

let paper_table5 =
  [
    ("PicoSoC", [ (1.993, 2.162, 2.674); (1.994, 2.161, 2.676); (1.756, 2.036, 2.214); (1.390, 1.447, 1.473) ]);
    ("AES", [ (2.505, 2.814, 3.450); (2.505, 2.814, 3.450); (2.274, 2.470, 2.715); (1.384, 1.509, 1.548) ]);
    ("FIR", [ (3.251, 3.50, 4.68); (3.421, 3.559, 4.697); (3.31, 3.57, 3.82); (1.663, 1.768, 1.816) ]);
  ]

let table5 out =
  heading out "Table V: same ROUTE-based target for all cases";
  let entries =
    List.filter_map
      (fun (name, paper) ->
        Option.map (fun e -> (name, paper, e)) (Circ.Catalog.find name))
      paper_table5
  in
  let shell_cases (_, _, (e : Circ.Catalog.entry)) =
    let shell_t = tfr e.Circ.Catalog.tfr_shell in
    C.Baselines.all ~case1:shell_t ~case2:shell_t ~case3:shell_t ~shell:shell_t
  in
  let rows =
    grid_rows ~entries ~cases_of:shell_cases
      ~row:(fun (_, paper, (e : Circ.Catalog.entry)) i (cname, cfg) ->
        let nl = e.Circ.Catalog.netlist () in
        let r = C.Flow.run cfg nl in
        let pa, pp_, pd = List.nth paper i in
        Printf.sprintf "  %-32s A=%.3f P=%.3f D=%.3f   (paper %.3f/%.3f/%.3f)\n"
          cname r.C.Flow.overhead.C.Overhead.area
          r.C.Flow.overhead.C.Overhead.power r.C.Flow.overhead.C.Overhead.delay
          pa pp_ pd)
  in
  let cursor = ref 0 in
  List.iter
    (fun ((name, _, (e : Circ.Catalog.entry)) as entry) ->
      let shell_t = tfr e.Circ.Catalog.tfr_shell in
      bpf out "\n%s (TfR: %s)\n" name shell_t.C.Baselines.label;
      List.iter
        (fun _ ->
          bpf out "%s" rows.(!cursor);
          incr cursor)
        (shell_cases entry))
    entries

(* ------------------------------------------------------------------ *)
(* Table VI: coefficient sweep                                         *)
(* ------------------------------------------------------------------ *)

let paper_table6 =
  [
    ("PicoSoC", [ (1.58, 1.59, 1.97); (1.41, 1.58, 1.45); (1.42, 1.46, 1.46); (1.81, 1.93, 1.99); (1.39, 1.45, 1.47) ]);
    ("AES", [ (1.64, 1.77, 1.88); (1.55, 1.61, 1.77); (1.43, 1.46, 1.60); (2.24, 2.36, 2.77); (1.38, 1.51, 1.55) ]);
    ("FIR", [ (1.88, 2.01, 2.06); (1.75, 1.79, 1.99); (1.65, 1.69, 1.94); (2.33, 2.50, 2.94); (1.66, 1.77, 1.82) ]);
    ("SPMV", [ (1.66, 1.70, 1.83); (1.36, 1.41, 1.64); (1.35, 1.42, 1.58); (1.77, 1.78, 2.08); (1.36, 1.41, 1.52) ]);
    ("DLA", [ (1.36, 1.45, 1.59); (1.31, 1.32, 1.55); (1.38, 1.53, 1.95); (1.58, 1.64, 2.09); (1.29, 1.33, 1.40) ]);
  ]

(* the paper strikes through the cells its SAT attack broke *)
let paper_broken = [ ("AES", "c2") ]

let table6 ?(attack = true) out =
  heading out "Table VI: coefficient profiles for sub-circuit selection";
  let entries = Circ.Catalog.all in
  let rows =
    grid_rows ~entries
      ~cases_of:(fun _ -> C.Score.presets)
      ~row:(fun (e : Circ.Catalog.entry) i (cname, coeffs) ->
        let nl = e.Circ.Catalog.netlist () in
        let paper = List.assoc e.Circ.Catalog.name paper_table6 in
        let cfg =
          C.Flow.shell_config ~target:(C.Flow.Auto { coeffs; lgc_depth = 0 }) ()
        in
        let r = C.Flow.run cfg nl in
        let pa, pp_, pd = List.nth paper i in
        let sec =
          if attack then "  SAT: " ^ resilience_tag (run_sat_attack r) else ""
        in
        let expect =
          if List.mem (e.Circ.Catalog.name, cname) paper_broken then
            " [paper: broken]"
          else ""
        in
        Printf.sprintf
          "  %-3s A=%.2f P=%.2f D=%.2f (paper %.2f/%.2f/%.2f)  TfR: %-40s%s%s\n"
          cname r.C.Flow.overhead.C.Overhead.area
          r.C.Flow.overhead.C.Overhead.power r.C.Flow.overhead.C.Overhead.delay
          pa pp_ pd
          (let l = r.C.Flow.choice.C.Selection.label in
           if String.length l > 40 then String.sub l 0 40 else l)
          sec expect)
  in
  let cursor = ref 0 in
  List.iter
    (fun (e : Circ.Catalog.entry) ->
      bpf out "\n%s\n" e.Circ.Catalog.name;
      List.iter
        (fun _ ->
          bpf out "%s" rows.(!cursor);
          incr cursor)
        C.Score.presets)
    entries

(* ------------------------------------------------------------------ *)
(* Table VII: LGC/ROUTE correlation depth                              *)
(* ------------------------------------------------------------------ *)

let paper_table7 =
  [
    ("PicoSoC", [ (2.717, 2.957, 4.621); (2.640, 2.928, 4.311); (1.390, 1.447, 1.473) ]);
    ("AES", [ (3.180, 3.347, 5.174); (3.215, 3.451, 5.318); (1.384, 1.509, 1.548) ]);
    ("FIR", [ (3.554, 3.701, 5.138); (3.439, 3.766, 5.082); (1.663, 1.768, 1.816) ]);
  ]

let table7 out =
  heading out "Table VII: LGC/ROUTE correlation (node distance) vs overhead";
  let entries =
    List.filter_map
      (fun (name, paper) ->
        Option.map (fun e -> (name, paper, e)) (Circ.Catalog.find name))
      paper_table7
  in
  let depths _ = List.map (fun d -> d) [ 2; 1; 0 ] in
  let rows =
    grid_rows ~entries ~cases_of:depths
      ~row:(fun (_, paper, (e : Circ.Catalog.entry)) i depth ->
        let nl = e.Circ.Catalog.netlist () in
        let route = e.Circ.Catalog.tfr_shell.Circ.Catalog.route in
        let cfg =
          C.Flow.shell_config
            ~target:(C.Flow.Route_with_lgc_depth { route; depth })
            ()
        in
        let r = C.Flow.run cfg nl in
        let pa, pp_, pd = List.nth paper i in
        Printf.sprintf
          "  depth %d: A=%.3f P=%.3f D=%.3f (paper %.3f/%.3f/%.3f)  pins=%d\n"
          depth r.C.Flow.overhead.C.Overhead.area
          r.C.Flow.overhead.C.Overhead.power r.C.Flow.overhead.C.Overhead.delay
          pa pp_ pd r.C.Flow.resources.F.Resources.io_pins)
  in
  let cursor = ref 0 in
  List.iter
    (fun (name, _, _) ->
      bpf out "\n%s\n" name;
      List.iter
        (fun _ ->
          bpf out "%s" rows.(!cursor);
          incr cursor)
        [ 2; 1; 0 ])
    entries

(* ------------------------------------------------------------------ *)
(* Fig. 1: the locking taxonomy, attacked                              *)
(* ------------------------------------------------------------------ *)

let fig1 out =
  heading out "Fig. 1: reconfigurability-based locking taxonomy under attack";
  (* a small structured victim keeps the miter tractable so the weak
     schemes actually fall within the budget *)
  let victim () = Circ.Axi_xbar.netlist ~channels:4 ~data_width:8 () in
  bpf out "victim: 4-channel Xbar (%d cells); budget 128 DIPs / 200k conflicts / 20 s\n"
    (N.Netlist.num_cells (victim ()));
  let schemes =
    [|
      ("(a) random LUT insertion [17]", fun nl -> L.Schemes.random_lut ~gates:10 nl);
      ("(b) heuristic LUT insertion [18]", fun nl -> L.Schemes.heuristic_lut ~gates:10 nl);
      ("(c) MUX routing locking [3]", fun nl -> L.Schemes.mux_routing ~width:32 nl);
      ("(d) MUX+LUT locking [4,5]", fun nl -> L.Schemes.mux_lut ~width:32 nl);
    |]
  in
  let rows =
    Pool.map
      (fun (name, mk) ->
        let nl = victim () in
        let lk = mk nl in
        assert (L.Locked.verify ~original:nl lk);
        let out =
          A.Sat_attack.attack.A.Attack.run
            (unified_budget (`Dips 128, `Conflicts 200_000, `Seconds 20.0))
            (A.Attack.subject ~original:nl lk)
        in
        let prox = A.Proximity.predict_links lk in
        Printf.sprintf
          "  %-36s key=%4d bits  SAT: %-36s  link prediction %d/%d (%.0f%%)\n"
          name (L.Locked.key_bits lk) (resilience_tag out)
          prox.A.Proximity.links_correct prox.A.Proximity.links
          (100.0 *. prox.A.Proximity.link_accuracy))
      schemes
  in
  Array.iter (fun row -> bpf out "%s" row) rows;
  (* (e) eFPGA redaction: scored selection over the desX layers *)
  let nl = victim () in
  let r = C.Flow.run (C.Flow.shell_config ()) nl in
  let lk = C.Flow.locked_sub r in
  let outc =
    run_sat_attack ~budget:(`Dips 64, `Conflicts 200_000, `Seconds 20.0) r
  in
  let prox = A.Proximity.predict_links lk in
  bpf out "  %-36s key=%4d bits  SAT: %-36s  link prediction %d/%d (%.0f%%)\n"
    "(e) eFPGA redaction (SheLL)" (L.Locked.key_bits lk) (resilience_tag outc)
    prox.A.Proximity.links_correct prox.A.Proximity.links
    (100.0 *. prox.A.Proximity.link_accuracy)

(* ------------------------------------------------------------------ *)
(* Fig. 2: OpenFPGA square-fabric utilization on desX                  *)
(* ------------------------------------------------------------------ *)

let fig2 out =
  heading out "Fig. 2: inefficient square mapping in OpenFPGA (desX on 7x7)";
  let nl = Circ.Desx.netlist () in
  let mapped, st = S.Lut_map.map ~k:4 (S.Opt.simplify nl) in
  let res = P.Pnr.fit_loop ~style:F.Style.Openfpga mapped in
  let fab = res.P.Pnr.fabric in
  bpf out "  desX: %d gates -> %d LUTs\n" (N.Netlist.num_cells nl) st.S.Lut_map.luts;
  bpf out "  OpenFPGA fabric: %dx%d (%d tiles), used tiles %d, unused %d\n"
    fab.F.Fabric.cols fab.F.Fabric.rows (F.Fabric.clb_tiles fab)
    res.P.Pnr.placement.P.Pnr.used_tiles
    (F.Fabric.clb_tiles fab - res.P.Pnr.placement.P.Pnr.used_tiles);
  bpf out "  LUT utilization %.1f%%, tile utilization %.1f%%\n"
    (100.0 *. res.P.Pnr.utilization)
    (100.0 *. res.P.Pnr.tile_utilization);
  let packed_tiles = (st.S.Lut_map.luts + 7) / 8 in
  bpf out "  densely packed the design needs %d tiles -> %d of %d tiles wasted\n"
    packed_tiles
    (F.Fabric.clb_tiles fab - packed_tiles)
    (F.Fabric.clb_tiles fab);
  bpf out "%s" (P.Floorplan.render res);
  let res_fab = P.Pnr.fit_loop ~style:F.Style.Fabulous_std mapped in
  bpf out "  FABulous rectangle: %dx%d, LUT utilization %.1f%%\n"
    res_fab.P.Pnr.fabric.F.Fabric.cols res_fab.P.Pnr.fabric.F.Fabric.rows
    (100.0 *. res_fab.P.Pnr.utilization);
  bpf out "  paper: 11 of 49 tiles unused, <77%% utilization\n"

(* ------------------------------------------------------------------ *)
(* Fig. 3: SoC-level redaction                                         *)
(* ------------------------------------------------------------------ *)

let fig3 out =
  heading out "Fig. 3: SoC-level locking (Xbar + core2/core4 wrappers)";
  let nl = Circ.Soc.netlist () in
  let cfg =
    C.Flow.shell_config
      ~target:
        (C.Flow.Fixed
           {
             route = [ "/xbar" ];
             lgc = [ ":wrap_core2"; ":wrap_core4" ];
             label = "Xbar + wrap(core2,core4)";
           })
      ()
  in
  let r = C.Flow.run cfg nl in
  bpf out "%s\n" (Format.asprintf "%a" C.Flow.pp_summary r);
  bpf out "  end-to-end verify (sequential): %b\n" (C.Flow.verify r);
  (* removal attack: with LGC entangled the plain-Xbar guess must fail *)
  let oracle = A.Sat_attack.oracle_of_netlist r.C.Flow.cut.C.Extraction.sub in
  let sub = r.C.Flow.cut.C.Extraction.sub in
  let sanity = A.Removal.attempt ~oracle sub in
  bpf out "  removal attack, true netlist guess: %s (sanity, must match)\n"
    (if sanity.A.Removal.matched then "match" else "MISMATCH");
  (* candidate: plain Xbar without the wrapper LGC *)
  let route_only =
    let cfg' =
      C.Flow.shell_config
        ~target:
          (C.Flow.Fixed { route = [ "/xbar" ]; lgc = []; label = "xbar-only" })
        ()
    in
    (C.Flow.run cfg' nl).C.Flow.cut.C.Extraction.sub
  in
  if
    List.length (N.Netlist.inputs route_only)
    = List.length (N.Netlist.inputs sub)
    && List.length (N.Netlist.outputs route_only)
       = List.length (N.Netlist.outputs sub)
  then begin
    let v = A.Removal.attempt ~oracle route_only in
    bpf out "  removal attack, plain-Xbar guess: %s\n"
      (if v.A.Removal.matched then "MATCH (attack wins)"
       else "mismatch (defeated)")
  end
  else
    bpf out
      "  removal attack, plain-Xbar guess: port shape differs (wrapper LGC entangled) -> defeated\n"

(* ------------------------------------------------------------------ *)
(* Fig. 4: the 8-step flow, verbose                                    *)
(* ------------------------------------------------------------------ *)

let fig4 out =
  heading out "Fig. 4: SheLL framework steps on PicoSoC";
  let e = List.nth Circ.Catalog.all 0 in
  let nl = e.Circ.Catalog.netlist () in
  let t = e.Circ.Catalog.tfr_shell in
  bpf out "  (1) connectivity & modular analysis\n";
  let analysis = C.Connectivity.analyze nl in
  bpf out "      %d blocks, %d inter-block edges\n"
    (Array.length analysis.C.Connectivity.blocks)
    (Shell_graph.Digraph.num_edges analysis.C.Connectivity.graph);
  bpf out "  (2) scoring (Eq. 1, SheLL coefficients) - top blocks:\n";
  let scored =
    Array.to_list
      (Array.mapi
         (fun i b ->
           (C.Score.eval C.Score.shell_choice b.C.Connectivity.attrs, i, b))
         analysis.C.Connectivity.blocks)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)
  in
  List.iteri
    (fun i (s, _, b) ->
      if i < 5 then
        bpf out "      %.3f  %-44s %s\n" s b.C.Connectivity.name
          (Format.asprintf "%a" C.Score.pp_attrs b.C.Connectivity.attrs))
    scored;
  let cfg =
    C.Flow.shell_config
      ~target:
        (C.Flow.Fixed
           {
             route = t.Circ.Catalog.route;
             lgc = t.Circ.Catalog.lgc;
             label = t.Circ.Catalog.label;
           })
      ()
  in
  let r = C.Flow.run cfg nl in
  bpf out "  (3) selection: %s (coverage %.2f)\n" r.C.Flow.choice.C.Selection.label
    r.C.Flow.choice.C.Selection.coverage;
  bpf out "  (4) decoupling/extraction: %d cells, %d in / %d out nets\n"
    (List.length r.C.Flow.cut.C.Extraction.cells)
    (List.length r.C.Flow.cut.C.Extraction.input_binding)
    (List.length r.C.Flow.cut.C.Extraction.output_binding);
  bpf out "  (5) dual synthesis: %d LUTs + %d Mux4 / %d Mux2 chain cells\n"
    r.C.Flow.mapped.C.Synthesize.luts r.C.Flow.mapped.C.Synthesize.chain_mux4
    r.C.Flow.mapped.C.Synthesize.chain_mux2;
  bpf out "  (6-7) fabric fit: %s (fit %s, utilization %.2f)\n"
    (Format.asprintf "%a" F.Fabric.pp r.C.Flow.pnr.P.Pnr.fabric)
    (match r.C.Flow.pnr.P.Pnr.fit with Ok () -> "ok" | Error _ -> "failed")
    r.C.Flow.pnr.P.Pnr.utilization;
  bpf out "  (8) shrink: %d config bits kept, bitstream %d bits\n"
    r.C.Flow.resources.F.Resources.config_bits
    (F.Bitstream.length r.C.Flow.emitted.F.Emit.bitstream);
  bpf out "  overhead: %s   verify: %b\n"
    (Format.asprintf "%a" C.Overhead.pp r.C.Flow.overhead)
    (C.Flow.verify r)

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let ablation out =
  heading out "Ablations: shrink / MUX chains / routing flexibility";
  let e = List.nth Circ.Catalog.all 0 in
  let nl = e.Circ.Catalog.netlist () in
  let t = e.Circ.Catalog.tfr_shell in
  let target =
    C.Flow.Fixed
      {
        route = t.Circ.Catalog.route;
        lgc = t.Circ.Catalog.lgc;
        label = t.Circ.Catalog.label;
      }
  in
  let base = C.Flow.shell_config ~target () in
  bpf out "
(a) step-8 shrinking (PicoSoC, SheLL target):
";
  List.iter
    (fun (name, shrink) ->
      let r = C.Flow.run { base with C.Flow.shrink } nl in
      bpf out "  %-22s A=%.3f P=%.3f D=%.3f
" name
        r.C.Flow.overhead.C.Overhead.area r.C.Flow.overhead.C.Overhead.power
        r.C.Flow.overhead.C.Overhead.delay)
    [ ("with shrinking", true); ("without shrinking", false) ];
  bpf out "
(b) MUX chains vs LUT-only mapping of the same ROUTE target:
";
  List.iter
    (fun (name, style) ->
      let r = C.Flow.run { base with C.Flow.style } nl in
      bpf out "  %-22s A=%.3f  (%d LUTs + %d chain cells, %d key bits)
" name
        r.C.Flow.overhead.C.Overhead.area r.C.Flow.mapped.C.Synthesize.luts
        (r.C.Flow.mapped.C.Synthesize.chain_mux4
        + r.C.Flow.mapped.C.Synthesize.chain_mux2)
        (F.Bitstream.length r.C.Flow.emitted.F.Emit.bitstream))
    [
      ("MUX chains", F.Style.Fabulous_muxchain);
      ("LUT-only (FABulous)", F.Style.Fabulous_std);
    ];
  bpf out "
(c) fabric parameters vs attack effort (cf. [26]):
";
  bpf out "    %-34s %8s %10s %s
" "fabric" "key bits" "c2v" "SAT (3s budget)";
  List.iter
    (fun style ->
      let r = C.Flow.run { base with C.Flow.style } nl in
      let lk = C.Flow.locked_sub r in
      let m =
        A.Metrics.of_locked
          ~bitstream:r.C.Flow.emitted.F.Emit.bitstream
          ~cycle_blocks:r.C.Flow.emitted.F.Emit.cycle_blocks
          lk.L.Locked.locked
      in
      let outc =
        run_sat_attack
          ~budget:(`Dips 32, `Conflicts 60_000, `Seconds 3.0)
          r
      in
      bpf out "    %-34s %8d %10.2f %s
" (F.Style.name style)
        m.A.Metrics.key_bits m.A.Metrics.c2v (resilience_tag outc))
    F.Style.all

(* ------------------------------------------------------------------ *)
(* Coefficient search (the paper's future-work extension)              *)
(* ------------------------------------------------------------------ *)

let explore out =
  heading out "Coefficient search (paper future work: heuristic exploration)";
  let e = List.nth Circ.Catalog.all 3 in
  (* SPMV: mid-size *)
  let nl = e.Circ.Catalog.netlist () in
  bpf out "searching Eq. 1 coefficient space on %s...
" e.Circ.Catalog.name;
  let o = C.Explore.search ~generations:4 ~population:6 nl in
  let c5 =
    List.find
      (fun (c : C.Explore.candidate) ->
        c.C.Explore.coeffs = C.Score.shell_choice)
      o.C.Explore.evaluated
  in
  bpf out "  profiles evaluated: %d
" (List.length o.C.Explore.evaluated);
  bpf out "  hand-picked c5:  A=%.3f (key %d bits)  TfR %s
"
    c5.C.Explore.overhead.C.Overhead.area c5.C.Explore.key_bits
    c5.C.Explore.label;
  bpf out "  searched best:   A=%.3f (key %d bits)  TfR %s
"
    o.C.Explore.best.C.Explore.overhead.C.Overhead.area
    o.C.Explore.best.C.Explore.key_bits o.C.Explore.best.C.Explore.label;
  let cc = o.C.Explore.best.C.Explore.coeffs in
  bpf out "  best coefficients: a=%.2f b=%.2f g=%.2f l=%.2f xi=%.2f s=%.2f
"
    cc.C.Score.alpha cc.C.Score.beta cc.C.Score.gamma cc.C.Score.lambda
    cc.C.Score.xi cc.C.Score.sigma

(* ------------------------------------------------------------------ *)
(* Attack portfolio: seeded solver race                                *)
(* ------------------------------------------------------------------ *)

let portfolio out =
  heading out "Attack portfolio: differently-seeded solvers race one lock";
  let nl = Circ.Axi_xbar.netlist ~channels:4 ~data_width:8 () in
  let lk = L.Schemes.mux_routing ~width:32 nl in
  bpf out "victim: 4-channel Xbar (%d cells), MUX routing lock, %d key bits\n"
    (N.Netlist.num_cells nl) (L.Locked.key_bits lk);
  bpf out "budget per racer: 64 DIPs / 60k conflicts / 5 s\n";
  let p =
    A.Portfolio.run ~max_dips:64 ~max_conflicts:60_000 ~time_limit:5.0
      ~original:nl lk.L.Locked.locked
  in
  let verdict_of = function
    | A.Sat_attack.Broken (k, st) ->
        A.Attack.Broken (k, A.Sat_attack.to_attack_stats ~broken:true st)
    | A.Sat_attack.Timeout st ->
        A.Attack.Resilient (A.Sat_attack.to_attack_stats st)
  in
  Array.iter
    (fun ((cfg : A.Portfolio.config), o) ->
      bpf out "  %-24s %s\n" cfg.A.Portfolio.label (resilience_tag (verdict_of o)))
    p.A.Portfolio.outcomes;
  (match p.A.Portfolio.winner with
  | Some i ->
      bpf out "  winner: config %d (%s)\n" i
        (fst p.A.Portfolio.outcomes.(i)).A.Portfolio.label
  | None -> bpf out "  no racer broke the lock within budget\n")

(* ------------------------------------------------------------------ *)
(* Simulation throughput: scalar Sim vs word-level Simw                *)
(* ------------------------------------------------------------------ *)

(* Per-catalog-circuit throughput of the two engines on identical
   stimulus: [chunks] full-width packed words = chunks * Simw.width
   vectors. The word engine steps once per word, the scalar engine once
   per vector; both run the same clocked [step] (flop update included)
   so the ratio is the end-to-end engine speedup, not a comb-only
   number. *)
let simulate_rows () =
  List.map
    (fun (e : Circ.Catalog.entry) ->
      let nl = e.Circ.Catalog.netlist () in
      let n_in = List.length (N.Netlist.inputs nl) in
      let chunks = 16 in
      let vectors = chunks * N.Simw.width in
      let rng = Shell_util.Rng.create 0xbe6c in
      let packed = Shell_util.Rng.vectors_packed rng ~vectors ~bits:n_in in
      let vecs =
        Array.init vectors (fun v ->
            N.Simw.lane packed.(v / N.Simw.width) (v mod N.Simw.width))
      in
      let sim = N.Sim.create nl in
      let _, t_scalar =
        Shell_util.Clock.time (fun () ->
            Array.iter (fun vec -> ignore (N.Sim.step sim vec)) vecs)
      in
      let simw = N.Simw.create nl in
      let word_reps = 8 in
      let _, t_word =
        Shell_util.Clock.time (fun () ->
            for _ = 1 to word_reps do
              Array.iter (fun w -> ignore (N.Simw.step simw w)) packed
            done)
      in
      let scalar_ns = 1e9 *. t_scalar /. float_of_int vectors in
      let word_ns = 1e9 *. t_word /. float_of_int (word_reps * vectors) in
      ( e.Circ.Catalog.name,
        N.Netlist.num_cells nl,
        scalar_ns,
        word_ns,
        scalar_ns /. Float.max 1e-9 word_ns ))
    Circ.Catalog.all

let simulate out =
  heading out
    (Printf.sprintf "Simulation throughput: scalar Sim vs %d-wide Simw"
       N.Simw.width);
  bpf out "  %-10s %8s %14s %14s %9s\n" "circuit" "cells" "scalar ns/vec"
    "word ns/vec" "speedup";
  List.iter
    (fun (name, cells, s, w, sp) ->
      bpf out "  %-10s %8d %14.1f %14.1f %8.1fx\n" name cells s w sp)
    (simulate_rows ())

(* ------------------------------------------------------------------ *)

let emit f =
  print_string (with_output f);
  flush stdout

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Shell_util.Clock.now () in
  (match which with
  | "table1" -> emit table1
  | "table4" -> emit (table4 ~attack:true)
  | "table4-fast" -> emit (table4 ~attack:false)
  | "table5" -> emit table5
  | "table6" -> emit (table6 ~attack:true)
  | "table6-fast" -> emit (table6 ~attack:false)
  | "table7" -> emit table7
  | "fig1" -> emit fig1
  | "fig2" -> emit fig2
  | "fig3" -> emit fig3
  | "fig4" -> emit fig4
  | "ablation" -> emit ablation
  | "explore" -> emit explore
  | "portfolio" -> emit portfolio
  | "simulate" -> emit simulate
  | "all" ->
      emit table1;
      emit fig2;
      emit (table4 ~attack:true);
      emit table5;
      emit (table6 ~attack:true);
      emit table7;
      emit fig1;
      emit fig3;
      emit fig4;
      emit ablation;
      emit explore;
      emit portfolio;
      emit simulate
  | other ->
      Printf.printf "unknown target %s\n" other;
      exit 1);
  (* stderr, so stdout stays byte-comparable across job counts *)
  Printf.eprintf "\ntotal bench time: %.1fs\n" (Shell_util.Clock.now () -. t0)
