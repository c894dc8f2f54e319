(* Tests for shell_circuits: every benchmark must elaborate to a valid,
   acyclic netlist with the blocks its TfRs name, and behave sanely
   under simulation. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Sim = Shell_fuzz.Ref_sim
module Circ = Shell_circuits

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let origins nl =
  List.map fst (Shell_rtl.Elab.module_footprint nl)

let check_benchmark (e : Circ.Catalog.entry) () =
  let nl = e.Circ.Catalog.netlist () in
  (match N.validate nl with Ok () -> () | Error m -> Alcotest.fail (Shell_util.Diag.to_string m));
  Alcotest.(check bool) "acyclic" false (N.has_comb_cycle nl);
  Alcotest.(check bool) "has cells" true (N.num_cells nl > 1000);
  Alcotest.(check bool) "has state" true
    (N.count_kind nl (function Cell.Dff -> true | _ -> false) > 0);
  (* all TfR patterns resolve to blocks *)
  let os = origins nl in
  let patterns t =
    t.Circ.Catalog.route @ t.Circ.Catalog.lgc
  in
  List.iter
    (fun pat ->
      Alcotest.(check bool) ("pattern " ^ pat) true
        (List.exists (fun o -> contains ~sub:pat o) os))
    (patterns e.Circ.Catalog.tfr_case1
    @ patterns e.Circ.Catalog.tfr_case2
    @ patterns e.Circ.Catalog.tfr_case3
    @ patterns e.Circ.Catalog.tfr_shell);
  (* simulation responds to inputs: some output changes over a run
     (pipelined designs need a few cycles before anything moves) *)
  let sim = Sim.create nl in
  let n_in = List.length (N.inputs nl) in
  let outputs = ref [] in
  for cycle = 0 to 7 do
    let ins = Array.init n_in (fun i -> (i + cycle) mod 3 <> 0) in
    outputs := Sim.step sim ins :: !outputs
  done;
  let distinct = List.sort_uniq compare !outputs in
  Alcotest.(check bool) "outputs respond" true (List.length distinct > 1)

let test_catalog_complete () =
  Alcotest.(check int) "five benchmarks" 5 (List.length Circ.Catalog.all);
  Alcotest.(check bool) "find is case-insensitive" true
    (Circ.Catalog.find "picosoc" <> None);
  Alcotest.(check bool) "unknown is None" true (Circ.Catalog.find "zzz" = None)

let test_xbar_function () =
  (* requester 0 asks target 2 with a known payload *)
  let nl = Circ.Axi_xbar.netlist ~channels:4 ~data_width:4 () in
  let sim = Sim.create nl in
  let ins = Array.make (List.length (N.inputs nl)) false in
  (* port order per channel: data(4), addr(2), valid(1) *)
  ins.(0) <- true;  (* data bit 0 *)
  ins.(3) <- true;  (* data bit 3: payload 9 *)
  ins.(5) <- true;  (* addr bit 1: target 2 *)
  ins.(6) <- true;  (* valid *)
  let outs = Sim.eval_comb sim ins in
  (* outputs per target: data(4) then valid(1), five bits per target *)
  let base = 2 * 5 in
  Alcotest.(check bool) "tgt2 data bit0" true outs.(base);
  Alcotest.(check bool) "tgt2 data bit3" true outs.(base + 3);
  Alcotest.(check bool) "tgt2 valid" true outs.(base + 4);
  Alcotest.(check bool) "tgt0 idle" false outs.(4)

let test_xbar_route_fraction () =
  let nl = Circ.Axi_xbar.netlist () in
  Alcotest.(check bool) "mux heavy" true
    (Shell_synth.Mux_chain.route_fraction nl > 0.25)

let test_soc_builds () =
  let nl = Circ.Soc.netlist () in
  (match N.validate nl with Ok () -> () | Error m -> Alcotest.fail (Shell_util.Diag.to_string m));
  let os = origins nl in
  Alcotest.(check bool) "xbar instance present" true
    (List.exists (fun o -> contains ~sub:"/xbar" o) os);
  Alcotest.(check bool) "wrappers present" true
    (List.exists (fun o -> contains ~sub:"wrap_core2" o) os)

let test_desx_deterministic () =
  let a = Circ.Desx.netlist () in
  let b = Circ.Desx.netlist () in
  Alcotest.(check int) "same size" (N.num_cells a) (N.num_cells b);
  let c = Circ.Desx.netlist ~seed:99 () in
  Alcotest.(check bool) "seed matters" true
    (Shell_netlist.Verilog.to_string a <> Shell_netlist.Verilog.to_string c
    || N.num_cells a <> N.num_cells c)

let test_aes_sbox_bijective () =
  (* the mini-AES sbox table is a permutation *)
  let seen = Array.make 16 false in
  Array.iter (fun v -> seen.(v) <- true) Circ.Aes.sbox_table;
  Alcotest.(check bool) "bijective" true (Array.for_all Fun.id seen)

let suite =
  List.map
    (fun (e : Circ.Catalog.entry) ->
      (e.Circ.Catalog.name ^ " generator", `Quick, check_benchmark e))
    Circ.Catalog.all
  @ [
      ("catalog complete", `Quick, test_catalog_complete);
      ("xbar function", `Quick, test_xbar_function);
      ("xbar route fraction", `Quick, test_xbar_route_fraction);
      ("soc builds", `Quick, test_soc_builds);
      ("desx deterministic", `Quick, test_desx_deterministic);
      ("aes sbox bijective", `Quick, test_aes_sbox_bijective);
    ]
