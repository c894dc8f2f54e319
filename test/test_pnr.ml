(* Tests for shell_pnr: packing, placement, routing, fit loop. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Style = Shell_fabric.Style
module Fabric = Shell_fabric.Fabric
module Pnr = Shell_pnr.Pnr
module Lut_map = Shell_synth.Lut_map
module Rng = Shell_util.Rng

let random_mapped seed n_gates =
  let rng = Rng.create seed in
  let nl = N.create "rand" in
  let pool =
    ref (Array.init 10 (fun i -> N.add_input nl (Printf.sprintf "i%d" i)))
  in
  for _ = 1 to n_gates do
    let a = Rng.choice rng !pool and b = Rng.choice rng !pool in
    let kinds = [| Cell.And; Cell.Or; Cell.Xor; Cell.Nand |] in
    let out = N.gate nl kinds.(Rng.int rng 4) [| a; b |] in
    pool := Array.append !pool [| out |]
  done;
  for i = 0 to 5 do
    N.add_output nl (Printf.sprintf "o%d" i) (!pool).(Array.length !pool - 1 - i)
  done;
  fst (Lut_map.map ~k:4 nl)

(* gates, flops and 2:1 muxes; the muxes survive LUT mapping as chain
   cells, the way the flow keeps its ROUTE muxes *)
let random_chained seed n_gates =
  let rng = Rng.create seed in
  let nl = N.create "chained" in
  let pool =
    ref (Array.init 10 (fun i -> N.add_input nl (Printf.sprintf "i%d" i)))
  in
  for _ = 1 to n_gates do
    let a = Rng.choice rng !pool and b = Rng.choice rng !pool in
    let out =
      match Rng.int rng 6 with
      | 0 -> N.mux2 nl ~sel:(Rng.choice rng !pool) ~a ~b
      | 1 -> N.dff nl a
      | k ->
          N.gate nl
            [| Cell.And; Cell.Or; Cell.Xor; Cell.Nand |].(k - 2)
            [| a; b |]
    in
    pool := Array.append !pool [| out |]
  done;
  for i = 0 to 5 do
    N.add_output nl (Printf.sprintf "o%d" i) (!pool).(Array.length !pool - 1 - i)
  done;
  fst (Lut_map.map ~k:4 ~boundary:(fun c -> c.Cell.kind = Cell.Mux2) nl)

let sized style nl =
  Fabric.size_for style
    ~luts:(N.count_kind nl (function Cell.Lut _ -> true | _ -> false))
    ~user_ffs:(N.count_kind nl (fun k -> k = Cell.Dff))
    ~chain_muxes:
      (N.count_kind nl (function Cell.Mux2 | Cell.Mux4 -> true | _ -> false))

let test_fit_loop_converges () =
  let mapped = random_mapped 3 250 in
  let res = Pnr.fit_loop ~style:Style.Openfpga mapped in
  (match res.Pnr.fit with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fit loop should converge");
  Alcotest.(check bool) "some utilization" true (res.Pnr.utilization > 0.0)

let test_all_cells_placed () =
  let mapped = random_mapped 4 150 in
  let res = Pnr.fit_loop ~style:Style.Fabulous_std mapped in
  let luts =
    N.count_kind mapped (function Cell.Lut _ -> true | _ -> false)
  in
  Alcotest.(check int) "lut count placed" luts res.Pnr.placement.Pnr.used_luts;
  (* every placed cell is inside the grid *)
  Hashtbl.iter
    (fun _ (t : Pnr.tile) ->
      Alcotest.(check bool) "within grid" true
        (t.Pnr.x >= 0
        && t.Pnr.x <= res.Pnr.fabric.Fabric.cols
        && t.Pnr.y >= 0
        && t.Pnr.y <= res.Pnr.fabric.Fabric.rows))
    res.Pnr.placement.Pnr.of_cell

let test_undersized_reports_shortage () =
  let mapped = random_mapped 5 300 in
  let tiny = { Fabric.style = Style.Openfpga; cols = 1; rows = 1; chain_slots = 0 } in
  let res = Pnr.run tiny mapped in
  match res.Pnr.fit with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "1x1 fabric cannot fit 300 gates"

let test_square_wastes_tiles () =
  (* the Fig. 2 effect: on the same mapped netlist, the square OpenFPGA
     grid has at most the LUT utilization of the FABulous rectangle *)
  let mapped = random_mapped 6 300 in
  let sq = Pnr.fit_loop ~style:Style.Openfpga mapped in
  let rc = Pnr.fit_loop ~style:Style.Fabulous_std mapped in
  Alcotest.(check bool)
    (Printf.sprintf "square %.2f <= rect %.2f" sq.Pnr.utilization rc.Pnr.utilization)
    true
    (sq.Pnr.utilization <= rc.Pnr.utilization +. 1e-9)

let test_deterministic () =
  let mapped = random_mapped 7 120 in
  let a = Pnr.fit_loop ~seed:3 ~style:Style.Openfpga mapped in
  let b = Pnr.fit_loop ~seed:3 ~style:Style.Openfpga mapped in
  Alcotest.(check int) "same wirelength" a.Pnr.routes.Pnr.wirelength
    b.Pnr.routes.Pnr.wirelength

let test_annealing_improves () =
  let mapped = random_mapped 8 250 in
  let fabric = Fabric.size_for Style.Fabulous_std ~luts:120 ~user_ffs:0 ~chain_muxes:0 in
  let cold = Pnr.run ~anneal_moves:0 fabric mapped in
  let hot = Pnr.run ~anneal_moves:30_000 fabric mapped in
  Alcotest.(check bool)
    (Printf.sprintf "annealed %d <= initial %d" hot.Pnr.routes.Pnr.wirelength
       cold.Pnr.routes.Pnr.wirelength)
    true
    (hot.Pnr.routes.Pnr.wirelength <= cold.Pnr.routes.Pnr.wirelength + 20)

(* MD5 of the cell -> tile bindings in cell order *)
let placement_md5 (r : Pnr.result) =
  Hashtbl.fold
    (fun c (t : Pnr.tile) acc -> (c, t.Pnr.x, t.Pnr.y) :: acc)
    r.Pnr.placement.Pnr.of_cell []
  |> List.sort compare
  |> List.map (fun (c, x, y) -> Printf.sprintf "%d:%d,%d" c x y)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* Exact PnR output, recorded once and committed as literals, so a
   change to packing, placement or routing that moves any placement,
   route or fit verdict fails here rather than only between two runs
   of one build. *)
let test_pinned_output () =
  let rand = random_mapped 11 200 and chained = random_chained 12 160 in
  let cases =
    [
      ( "sized",
        Pnr.run ~seed:5 (sized Style.Fabulous_std rand) rand,
        (60, 9, 0, 5, "ok", "088b78c7dbd5a1dcf90de068c0d8b768") );
      ( "1x1",
        Pnr.run ~seed:5
          { Fabric.style = Style.Fabulous_std; cols = 1; rows = 1; chain_slots = 0 }
          rand,
        (8, 8, 0, 1, "LUTs", "6acf9dd6b58dbbe8abb1b0de41501503") );
      (* widened from its 3x2 size_for grid so the unpacked flops fit *)
      ( "chain",
        Pnr.run ~seed:9
          { (sized Style.Fabulous_muxchain chained) with Fabric.cols = 4; rows = 3 }
          chained,
        (243, 26, 0, 9, "ok", "ee3db0621bc68164afdf0d9eb04064d7") );
    ]
  in
  List.iter
    (fun (name, (r : Pnr.result), (wl, cong, ovf, tiles, fit, md5)) ->
      let check what = Alcotest.(check int) (name ^ " " ^ what) in
      check "wirelength" wl r.Pnr.routes.Pnr.wirelength;
      check "max_congestion" cong r.Pnr.routes.Pnr.max_congestion;
      check "overflow_segments" ovf r.Pnr.routes.Pnr.overflow_segments;
      check "used_tiles" tiles r.Pnr.placement.Pnr.used_tiles;
      Alcotest.(check string) (name ^ " fit") fit
        (match r.Pnr.fit with Ok () -> "ok" | Error s -> Fabric.shortage_name s);
      Alcotest.(check string) (name ^ " placement") md5 (placement_md5 r))
    cases

(* The annealer's moves allocate only their RNG draws. *)
let test_anneal_allocation () =
  let mapped = random_mapped 8 250 in
  let fabric =
    Fabric.size_for Style.Fabulous_std ~luts:120 ~user_ffs:0 ~chain_muxes:0
  in
  let words moves =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Pnr.run ~anneal_moves:moves fabric mapped));
    Gc.minor_words () -. w0
  in
  let moves = 20_000 in
  let per_move = (words moves -. words 0) /. float_of_int moves in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per move < 8" per_move)
    true (per_move < 8.)

let test_chain_cells_fit () =
  let nl = N.create "ch" in
  let s = N.add_input nl "s" in
  let data = Array.init 8 (fun i -> N.add_input nl (Printf.sprintf "d%d" i)) in
  let muxes =
    Array.init 4 (fun i ->
        N.mux2 nl ~sel:s ~a:data.(2 * i) ~b:data.((2 * i) + 1))
  in
  Array.iteri (fun i m -> N.add_output nl (Printf.sprintf "y%d" i) m) muxes;
  let res = Pnr.fit_loop ~style:Style.Fabulous_muxchain nl in
  Alcotest.(check int) "chain cells placed" 4 res.Pnr.placement.Pnr.used_chain;
  match res.Pnr.fit with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "chain must fit"

let test_fit_counts () =
  let mapped = random_mapped 10 150 in
  let res = Pnr.fit_loop ~style:Style.Fabulous_std mapped in
  let c = Pnr.fit_counts ~netlist:mapped res in
  Alcotest.(check int) "used luts from placement" res.Pnr.placement.Pnr.used_luts
    c.Pnr.used_luts;
  Alcotest.(check bool) "lut capacity covers demand" true
    (c.Pnr.lut_capacity >= c.Pnr.used_luts);
  Alcotest.(check bool) "ff capacity covers demand" true
    (c.Pnr.ff_capacity >= c.Pnr.used_ffs);
  Alcotest.(check bool) "io pins counted" true
    (match c.Pnr.io_pins with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "channel width positive" true (c.Pnr.channel_width > 0);
  Alcotest.(check int) "converged fit has no overflow" 0 c.Pnr.overflow_segments

let test_shortage_carries_counts () =
  let mapped = random_mapped 5 300 in
  let tiny =
    { Fabric.style = Style.Openfpga; cols = 1; rows = 1; chain_slots = 0 }
  in
  let res = Pnr.run tiny mapped in
  match Pnr.diag_of_fit ~netlist:mapped res with
  | None -> Alcotest.fail "1x1 fabric must yield a shortage diagnostic"
  | Some d -> (
      match d.Shell_util.Diag.payload with
      | Fabric.Shortage { shortage = _; demand; capacity; counts } ->
          Alcotest.(check bool) "demand exceeds capacity" true
            (demand > capacity);
          let assoc what =
            List.find_opt (fun (n, _, _) -> n = what) counts
          in
          (match assoc "luts" with
          | Some (_, d, c) ->
              Alcotest.(check int) "lut demand in counts"
                res.Pnr.placement.Pnr.used_luts d;
              Alcotest.(check bool) "lut capacity in counts" true (c >= 0)
          | None -> Alcotest.fail "counts must carry the lut triple");
          Alcotest.(check bool) "io triple present with netlist" true
            (assoc "io_pins" <> None)
      | _ -> Alcotest.fail "expected a Fabric.Shortage payload")

let test_floorplan_renders () =
  let mapped = random_mapped 9 100 in
  let res = Pnr.fit_loop ~style:Style.Openfpga mapped in
  let s = Shell_pnr.Floorplan.render res in
  Alcotest.(check bool) "mentions grid" true
    (String.length s > 40);
  (* one row line per fabric row *)
  let rows =
    List.filter
      (fun l -> String.length l > 2 && String.sub l 0 3 = "  |")
      (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "row lines" res.Pnr.fabric.Fabric.rows (List.length rows)

let suite =
  [
    ("fit loop converges", `Quick, test_fit_loop_converges);
    ("all cells placed", `Quick, test_all_cells_placed);
    ("undersized reports shortage", `Quick, test_undersized_reports_shortage);
    ("square wastes tiles (fig 2)", `Quick, test_square_wastes_tiles);
    ("deterministic", `Quick, test_deterministic);
    ("annealing improves", `Quick, test_annealing_improves);
    ("pinned output", `Quick, test_pinned_output);
    ("anneal allocation", `Quick, test_anneal_allocation);
    ("chain cells fit", `Quick, test_chain_cells_fit);
    ("fit counts accounting", `Quick, test_fit_counts);
    ("shortage carries counts", `Quick, test_shortage_carries_counts);
    ("floorplan renders", `Quick, test_floorplan_renders);
  ]
