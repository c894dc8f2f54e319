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

(* A move allocates at most the boxed float of its one [Rng.float]
   draw, two words, drawn only for an uphill move. The difference of
   two anneal lengths cancels the set-up. *)
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
  let per_move = (words 20_000 -. words 10_000) /. 10_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per move <= 2" per_move)
    true (per_move <= 2.)

(* The oracle for "anneal matches the reference": [Pnr.run] written the
   plain way, with list-built incidence, [max_int]/[min_int] box
   sentinels and compare-and-branch bounds, and the same packing and
   routing. It also counts the cases the flat loop must get right:
   moves into a free slot, moves whose two BLEs share a net, and placed
   nets with no fixed pin. *)
module Reference = struct
  type ble = { lut : int option; ff : int option }

  type counts = {
    mutable free_slot_moves : int;
    mutable shared_net_moves : int;
    mutable unpinned_nets : int;
  }

  let counts = { free_slot_moves = 0; shared_net_moves = 0; unpinned_nets = 0 }

  let pack nl =
    let cells = N.cells nl in
    let fanout_count = Array.make (max (N.num_nets nl) 1) 0 in
    Array.iter
      (fun c ->
        Array.iter
          (fun net -> fanout_count.(net) <- fanout_count.(net) + 1)
          c.Cell.ins)
      cells;
    Array.iter
      (fun net -> fanout_count.(net) <- fanout_count.(net) + 1)
      (N.output_nets nl);
    let ff_of_lut = Hashtbl.create 16 and packed_ff = Hashtbl.create 16 in
    Array.iteri
      (fun i c ->
        if c.Cell.kind = Cell.Dff then
          match N.driver nl c.Cell.ins.(0) with
          | Some j
            when (match cells.(j).Cell.kind with Cell.Lut _ -> true | _ -> false)
                 && fanout_count.(cells.(j).Cell.out) = 1
                 && not (Hashtbl.mem ff_of_lut j) ->
              Hashtbl.add ff_of_lut j i;
              Hashtbl.add packed_ff i ()
          | Some _ | None -> ())
      cells;
    let bles = ref [] and chain = ref [] in
    Array.iteri
      (fun i c ->
        match c.Cell.kind with
        | Cell.Lut _ ->
            bles := { lut = Some i; ff = Hashtbl.find_opt ff_of_lut i } :: !bles
        | Cell.Dff ->
            if not (Hashtbl.mem packed_ff i) then
              bles := { lut = None; ff = Some i } :: !bles
        | Cell.Mux2 | Cell.Mux4 -> chain := i :: !chain
        | Cell.Const _ | Cell.Config_latch -> ()
        | _ -> bles := { lut = Some i; ff = None } :: !bles)
      cells;
    (List.rev !bles, List.rev !chain)

  (* of_cell bindings sorted, wirelength, congestion, overflow, fit *)
  let run ~seed ~anneal_moves (fabric : Fabric.t) nl =
    let p = Style.params fabric.Fabric.style in
    let cells = N.cells nl in
    let bles, chain = pack nl in
    let bles = Array.of_list bles and chain = Array.of_list chain in
    let n_bles = Array.length bles in
    let cols = fabric.Fabric.cols and rows = fabric.Fabric.rows in
    let slots_per_tile = p.Style.clb_luts in
    let n_slots = cols * rows * slots_per_tile in
    let used_luts =
      Array.fold_left
        (fun acc b -> acc + match b.lut with Some _ -> 1 | None -> 0)
        0 bles
    in
    let pins_needed = List.length (N.inputs nl) + List.length (N.outputs nl) in
    let over_capacity =
      if pins_needed > Fabric.io_capacity fabric then Some Fabric.Routing_short
      else if n_bles > n_slots then
        if used_luts > Fabric.lut_capacity fabric then Some Fabric.Luts_short
        else Some Fabric.Ffs_short
      else if Array.length chain > fabric.Fabric.chain_slots then
        Some Fabric.Chain_short
      else None
    in
    let rng = Rng.create seed in
    let placeable = min n_bles n_slots in
    let slot_of_ble = Array.init placeable (fun i -> i) in
    let ble_of_slot = Array.make n_slots (-1) in
    Array.iteri (fun b s -> ble_of_slot.(s) <- b) slot_of_ble;
    let slot_x = Array.init n_slots (fun s -> s / slots_per_tile mod cols) in
    let slot_y = Array.init n_slots (fun s -> s / slots_per_tile / cols) in
    let tile_of_slot s = { Pnr.x = slot_x.(s); y = slot_y.(s) } in
    let chain_pos i =
      let n = max 1 (Array.length chain) in
      { Pnr.x = cols; y = i * rows / n }
    in
    let inputs = N.input_nets nl and outputs = N.output_nets nl in
    let keyn = N.key_nets nl in
    let spread i n = if n <= 1 then 0 else i * (rows - 1) / (n - 1) in
    let pos_of_input i n = { Pnr.x = -1; y = spread i n } in
    let pos_of_output i n = { Pnr.x = cols; y = spread i n } in
    let ble_of_cell = Hashtbl.create 64 in
    Array.iteri
      (fun bi b ->
        (match b.lut with Some ci -> Hashtbl.replace ble_of_cell ci bi | None -> ());
        match b.ff with Some ci -> Hashtbl.replace ble_of_cell ci bi | None -> ())
      bles;
    let chain_of_cell = Hashtbl.create 64 in
    Array.iteri (fun pi ci -> Hashtbl.replace chain_of_cell ci pi) chain;
    let cell_pos ci =
      match Hashtbl.find_opt ble_of_cell ci with
      | Some bi when bi < placeable -> Some (tile_of_slot slot_of_ble.(bi))
      | Some _ -> None
      | None -> Option.map chain_pos (Hashtbl.find_opt chain_of_cell ci)
    in
    let net_entity = Array.make (max (N.num_nets nl) 1) [] in
    let add_entity net e = net_entity.(net) <- e :: net_entity.(net) in
    let n_in = Array.length inputs and n_out = Array.length outputs in
    Array.iteri (fun i net -> add_entity net (`Fixed (pos_of_input i n_in))) inputs;
    Array.iteri
      (fun i net -> add_entity net (`Fixed (pos_of_input i (max n_in 1))))
      keyn;
    Array.iteri (fun i net -> add_entity net (`Fixed (pos_of_output i n_out))) outputs;
    Array.iteri
      (fun ci c ->
        let entity =
          match Hashtbl.find_opt ble_of_cell ci with
          | Some bi -> Some (`Ble bi)
          | None -> Option.map (fun pi -> `Chain pi) (Hashtbl.find_opt chain_of_cell ci)
        in
        match entity with
        | None -> ()
        | Some e ->
            add_entity c.Cell.out e;
            Array.iter (fun net -> add_entity net e) c.Cell.ins)
      cells;
    let nets =
      Array.to_list net_entity
      |> List.filter (fun pins -> List.length pins >= 2)
      |> Array.of_list
    in
    let entity_pos = function
      | `Fixed t -> Some t
      | `Ble bi -> if bi < placeable then Some (tile_of_slot slot_of_ble.(bi)) else None
      | `Chain pi -> Some (chain_pos pi)
    in
    if placeable > 1 && anneal_moves > 0 then begin
      let n_nets = Array.length nets in
      let fx0 = Array.make n_nets max_int and fx1 = Array.make n_nets min_int in
      let fy0 = Array.make n_nets max_int and fy1 = Array.make n_nets min_int in
      let net_bles = Array.make n_nets [||] in
      let nets_of_ble = Array.make placeable [] in
      Array.iteri
        (fun ni pins ->
          let placed = ref [] in
          List.iter
            (fun e ->
              match e with
              | `Ble bi when bi < placeable ->
                  placed := bi :: !placed;
                  nets_of_ble.(bi) <- ni :: nets_of_ble.(bi)
              | _ -> (
                  match entity_pos e with
                  | Some (t : Pnr.tile) ->
                      fx0.(ni) <- min fx0.(ni) t.Pnr.x;
                      fx1.(ni) <- max fx1.(ni) t.Pnr.x;
                      fy0.(ni) <- min fy0.(ni) t.Pnr.y;
                      fy1.(ni) <- max fy1.(ni) t.Pnr.y
                  | None -> ()))
            pins;
          net_bles.(ni) <- Array.of_list (List.sort_uniq compare !placed);
          if net_bles.(ni) <> [||] && fx0.(ni) = max_int then
            counts.unpinned_nets <- counts.unpinned_nets + 1)
        nets;
      let nets_of_ble = Array.map Array.of_list nets_of_ble in
      let hpwl ni =
        let x0 = ref fx0.(ni) and x1 = ref fx1.(ni) in
        let y0 = ref fy0.(ni) and y1 = ref fy1.(ni) in
        Array.iter
          (fun b ->
            let s = slot_of_ble.(b) in
            let x = slot_x.(s) and y = slot_y.(s) in
            if x < !x0 then x0 := x;
            if x > !x1 then x1 := x;
            if y < !y0 then y0 := y;
            if y > !y1 then y1 := y)
          net_bles.(ni);
        if !x0 > !x1 then 0 else !x1 - !x0 + (!y1 - !y0)
      in
      let net_cost = Array.init n_nets hpwl in
      let fresh = Array.make n_nets 0 and stamp = Array.make n_nets 0 in
      let cached bi = Array.fold_left (fun acc ni -> acc + net_cost.(ni)) 0 nets_of_ble.(bi) in
      let recompute move bi =
        Array.fold_left
          (fun acc ni ->
            if stamp.(ni) <> move then begin
              stamp.(ni) <- move;
              fresh.(ni) <- hpwl ni
            end;
            acc + fresh.(ni))
          0 nets_of_ble.(bi)
      in
      let commit bi = Array.iter (fun ni -> net_cost.(ni) <- fresh.(ni)) nets_of_ble.(bi) in
      let temp =
        ref
          (float_of_int (max 1 (Array.fold_left ( + ) 0 net_cost))
          /. float_of_int (max 1 n_nets))
      in
      for move = 1 to anneal_moves do
        let b1 = Rng.int rng placeable in
        let s2 = Rng.int rng n_slots in
        let b2 = ble_of_slot.(s2) in
        let s1 = slot_of_ble.(b1) in
        if s1 <> s2 then begin
          if b2 < 0 then counts.free_slot_moves <- counts.free_slot_moves + 1
          else if Array.exists (fun ni -> Array.mem ni nets_of_ble.(b2)) nets_of_ble.(b1)
          then counts.shared_net_moves <- counts.shared_net_moves + 1;
          let before = cached b1 + if b2 >= 0 then cached b2 else 0 in
          slot_of_ble.(b1) <- s2;
          ble_of_slot.(s2) <- b1;
          ble_of_slot.(s1) <- b2;
          if b2 >= 0 then slot_of_ble.(b2) <- s1;
          let after = recompute move b1 + if b2 >= 0 then recompute move b2 else 0 in
          let delta = float_of_int (after - before) in
          let t = if !temp >= 1e-3 then !temp else 1e-3 in
          if delta > 0.0 && Rng.float rng 1.0 >= exp (-.delta /. t) then begin
            slot_of_ble.(b1) <- s1;
            ble_of_slot.(s1) <- b1;
            ble_of_slot.(s2) <- b2;
            if b2 >= 0 then slot_of_ble.(b2) <- s2
          end
          else begin
            commit b1;
            if b2 >= 0 then commit b2
          end
        end;
        temp := !temp *. 0.9995
      done
    end;
    let h_usage = Array.make_matrix (rows + 1) (cols + 2) 0 in
    let v_usage = Array.make_matrix (cols + 2) (rows + 1) 0 in
    let clampx x = max 0 (min (cols + 1) (x + 1)) in
    let clampy y = max 0 (min rows y) in
    let wirelength = ref 0 in
    let use_h y x0 x1 =
      for x = min x0 x1 to max x0 x1 - 1 do
        h_usage.(y).(x) <- h_usage.(y).(x) + 1;
        incr wirelength
      done
    in
    let use_v x y0 y1 =
      for y = min y0 y1 to max y0 y1 - 1 do
        v_usage.(x).(y) <- v_usage.(x).(y) + 1;
        incr wirelength
      done
    in
    let route_net (positions : Pnr.tile list) =
      let xs = List.map (fun (t : Pnr.tile) -> clampx t.Pnr.x) positions in
      let ys = List.map (fun (t : Pnr.tile) -> clampy t.Pnr.y) positions in
      let sorted_ys = List.sort compare ys in
      let trunk_y = List.nth sorted_ys (List.length sorted_ys / 2) in
      use_h trunk_y (List.fold_left min (cols + 1) xs) (List.fold_left max 0 xs);
      let cols_seen = Hashtbl.create 8 in
      List.iter2
        (fun x y ->
          let reach = Hashtbl.find_opt cols_seen x in
          let need =
            match reach with Some (lo, hi) -> y < lo || y > hi | None -> y <> trunk_y
          in
          if need then begin
            use_v x trunk_y y;
            let lo, hi =
              match reach with
              | Some (lo, hi) -> (min lo (min y trunk_y), max hi (max y trunk_y))
              | None -> (min y trunk_y, max y trunk_y)
            in
            Hashtbl.replace cols_seen x (lo, hi)
          end)
        xs ys
    in
    Array.iter
      (fun pins ->
        let all_chain =
          pins <> [] && List.for_all (function `Chain _ -> true | _ -> false) pins
        in
        if not all_chain then
          match List.filter_map entity_pos pins with
          | [] | [ _ ] -> ()
          | ps -> route_net ps)
      nets;
    let cap = p.Style.channel_width in
    let max_congestion = ref 0 and overflow = ref 0 in
    let scan =
      Array.iter
        (Array.iter (fun u ->
             if u > !max_congestion then max_congestion := u;
             if u > cap then incr overflow))
    in
    scan h_usage;
    scan v_usage;
    let of_cell = ref [] in
    Array.iteri
      (fun ci _ ->
        match cell_pos ci with
        | Some (t : Pnr.tile) -> of_cell := (ci, t.Pnr.x, t.Pnr.y) :: !of_cell
        | None -> ())
      cells;
    let fit =
      match over_capacity with
      | Some s -> Fabric.shortage_name s
      | None -> if !overflow > 0 then Fabric.shortage_name Fabric.Routing_short else "ok"
    in
    (List.sort compare !of_cell, !wirelength, !max_congestion, !overflow, fit)
end

let observed (r : Pnr.result) =
  ( Hashtbl.fold
      (fun c (t : Pnr.tile) acc -> (c, t.Pnr.x, t.Pnr.y) :: acc)
      r.Pnr.placement.Pnr.of_cell []
    |> List.sort compare,
    r.Pnr.routes.Pnr.wirelength,
    r.Pnr.routes.Pnr.max_congestion,
    r.Pnr.routes.Pnr.overflow_segments,
    match r.Pnr.fit with Ok () -> "ok" | Error s -> Fabric.shortage_name s )

(* Random mapped and chained netlists on sized, 1x1 and over-capacity
   grids, at several seeds and move counts: the same placement (every
   [of_cell] binding), routes and fit as the reference loop. *)
let test_anneal_matches_reference () =
  let netlists =
    [
      ("mapped 11", random_mapped 11 200);
      ("mapped 21", random_mapped 21 60);
      ("chained 12", random_chained 12 160);
      ("chained 22", random_chained 22 90);
    ]
  in
  let grids (nl, style) =
    let sized = sized style nl in
    let grid cols rows = { sized with Fabric.cols; rows } in
    [
      ("sized", sized);
      ("widened", grid (sized.Fabric.cols + 1) (sized.Fabric.rows + 1));
      ("1x1", grid 1 1);
      ("over capacity", grid 2 1);
    ]
  in
  let item = Alcotest.(triple int int int) in
  List.iter
    (fun (name, nl) ->
      let style =
        if N.count_kind nl (fun k -> k = Cell.Mux2) > 0 then Style.Fabulous_muxchain
        else Style.Fabulous_std
      in
      List.iter
        (fun (gname, fabric) ->
          List.iter
            (fun seed ->
              List.iter
                (fun moves ->
                  let label =
                    Printf.sprintf "%s %s seed %d moves %d" name gname seed moves
                  in
                  let of_cell, wl, cong, ovf, fit =
                    Reference.run ~seed ~anneal_moves:moves fabric nl
                  in
                  let of_cell', wl', cong', ovf', fit' =
                    observed (Pnr.run ~seed ~anneal_moves:moves fabric nl)
                  in
                  Alcotest.(check (list item)) (label ^ " of_cell") of_cell of_cell';
                  Alcotest.(check int) (label ^ " wirelength") wl wl';
                  Alcotest.(check int) (label ^ " congestion") cong cong';
                  Alcotest.(check int) (label ^ " overflow") ovf ovf';
                  Alcotest.(check string) (label ^ " fit") fit fit')
                [ 0; 1; 77; 20_000 ])
            [ 1; 5; 9 ])
        (grids (nl, style)))
    netlists;
  let c = Reference.counts in
  Alcotest.(check bool) "some moves went to a free slot" true
    (c.Reference.free_slot_moves > 0);
  Alcotest.(check bool) "some swaps shared a net" true
    (c.Reference.shared_net_moves > 0);
  Alcotest.(check bool) "some placed nets had no fixed pin" true
    (c.Reference.unpinned_nets > 0)

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
    ("anneal matches the reference", `Quick, test_anneal_matches_reference);
    ("chain cells fit", `Quick, test_chain_cells_fit);
    ("fit counts accounting", `Quick, test_fit_counts);
    ("shortage carries counts", `Quick, test_shortage_carries_counts);
    ("floorplan renders", `Quick, test_floorplan_renders);
  ]
