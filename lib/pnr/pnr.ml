module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Fabric = Shell_fabric.Fabric
module Style = Shell_fabric.Style
module Rng = Shell_util.Rng
module Obs = Shell_util.Obs

(* Retries are a pure function of the netlist/style/seed, and the
   single-flight pass cache runs each distinct PnR input exactly once
   — so the total is stable across job counts. *)
let m_retries =
  Obs.counter ~stable:true ~help:"fabric grow retries across all fit loops"
    "pnr_retries"

type tile = { x : int; y : int }

type placement = {
  of_cell : (int, tile) Hashtbl.t;
  used_tiles : int;
  used_luts : int;
  used_ffs : int;
  used_chain : int;
}

type route_stats = {
  wirelength : int;
  max_congestion : int;
  overflow_segments : int;
}

type result = {
  fabric : Fabric.t;
  placement : placement;
  routes : route_stats;
  fit : (unit, Fabric.shortage) Result.t;
  utilization : float;
  tile_utilization : float;
}

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

type ble = { lut : int option; ff : int option }  (* cell indices *)

let pack nl =
  let cells = Netlist.cells nl in
  let fanout_count = Array.make (max (Netlist.num_nets nl) 1) 0 in
  Array.iter
    (fun c ->
      Array.iter
        (fun net -> fanout_count.(net) <- fanout_count.(net) + 1)
        c.Cell.ins)
    cells;
  Array.iter
    (fun net -> fanout_count.(net) <- fanout_count.(net) + 1)
    (Netlist.output_nets nl);
  (* a flop packs with the LUT that exclusively feeds it *)
  let ff_of_lut = Hashtbl.create 16 in
  let packed_ff = Hashtbl.create 16 in
  Array.iteri
    (fun i c ->
      if c.Cell.kind = Cell.Dff then
        match Netlist.driver nl c.Cell.ins.(0) with
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
      | Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor
      | Cell.Not | Cell.Buf ->
          (* unmapped logic: treat as one BLE worth of demand *)
          bles := { lut = Some i; ff = None } :: !bles)
    cells;
  (List.rev !bles, List.rev !chain)

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)


let run ?(seed = 7) ?(anneal_moves = 20_000) fabric nl =
  let p = Style.params fabric.Fabric.style in
  let cells = Netlist.cells nl in
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
  let used_ffs =
    Array.fold_left
      (fun acc b -> acc + match b.ff with Some _ -> 1 | None -> 0)
      0 bles
  in
  let used_chain = Array.length chain in
  let pins_needed =
    List.length (Netlist.inputs nl) + List.length (Netlist.outputs nl)
  in
  let over_capacity =
    if pins_needed > Fabric.io_capacity fabric then Some Fabric.Routing_short
    else if n_bles > n_slots then
      (* distinguish what drove the overflow *)
      if used_luts > Fabric.lut_capacity fabric then Some Fabric.Luts_short
      else Some Fabric.Ffs_short
    else if used_chain > fabric.Fabric.chain_slots then Some Fabric.Chain_short
    else None
  in
  let rng = Rng.create seed in
  (* slot assignment for as many BLEs as fit; the remainder (over
     capacity) is left unplaced and the fit check reports the shortage *)
  let placeable = min n_bles n_slots in
  let slot_of_ble = Array.init placeable (fun i -> i) in
  let ble_of_slot = Array.make n_slots (-1) in
  Array.iteri (fun b s -> ble_of_slot.(s) <- b) slot_of_ble;
  (* slot coordinates, flat so the annealer reads two ints per pin *)
  let slot_x = Array.init n_slots (fun s -> s / slots_per_tile mod cols) in
  let slot_y = Array.init n_slots (fun s -> s / slots_per_tile / cols) in
  let tile_of_slot s = { x = slot_x.(s); y = slot_y.(s) } in
  (* chain positions: a vertical strip to the right of the grid *)
  let chain_pos i =
    let n = max 1 (Array.length chain) in
    { x = cols; y = i * rows / n }
  in
  (* virtual I/O positions *)
  let inputs = Netlist.input_nets nl and outputs = Netlist.output_nets nl in
  let keyn = Netlist.key_nets nl in
  let pos_of_input i n = { x = -1; y = (if n <= 1 then 0 else i * (rows - 1) / (n - 1)) } in
  let pos_of_output i n = { x = cols; y = (if n <= 1 then 0 else i * (rows - 1) / (n - 1)) } in
  (* cell -> placement entity: BLE index, chain index, or I/O *)
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
    | None -> (
        match Hashtbl.find_opt chain_of_cell ci with
        | Some pi -> Some (chain_pos pi)
        | None -> None)
  in
  (* nets with their pin entities; pin = Ble of int | Chain of int | Fixed of tile *)
  let net_entity = Array.make (max (Netlist.num_nets nl) 1) [] in
  let add_entity net e = net_entity.(net) <- e :: net_entity.(net) in
  let n_in = Array.length inputs and n_out = Array.length outputs in
  Array.iteri (fun i net -> add_entity net (`Fixed (pos_of_input i n_in))) inputs;
  Array.iteri (fun i net -> add_entity net (`Fixed (pos_of_input i (max n_in 1)))) keyn;
  Array.iteri (fun i net -> add_entity net (`Fixed (pos_of_output i n_out))) outputs;
  Array.iteri
    (fun ci c ->
      let entity =
        match Hashtbl.find_opt ble_of_cell ci with
        | Some bi -> Some (`Ble bi)
        | None -> (
            match Hashtbl.find_opt chain_of_cell ci with
            | Some pi -> Some (`Chain pi)
            | None -> None)
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
  (* ---------------- annealing ----------------
     Simulated annealing over slot swaps, on flat int arrays so that a
     move allocates only the boxed float of its [Rng.float] draw, and
     only when it goes uphill. Each net keeps the bounding box of its pins
     that never move (I/O, chain, BLEs left unplaced over capacity) and
     its placed BLEs; [net_cost] caches every net's HPWL. A move's cost
     sums the moved BLEs' nets, read from the cache before the swap and
     recomputed after it; accepting commits the new costs. A BLE's net
     list holds a net once per pin the BLE has on it, and a net on both
     moved BLEs counts on each side: that definition fixes the integer
     delta, and with it every accept decision and RNG draw (DESIGN.md
     §3n). *)
  if placeable > 1 && anneal_moves > 0 then begin
    let n_nets = Array.length nets in
    (* An empty box starts at [far, -far]. The bound keeps the
       branch-free [x - x0] of [hpwl] from overflowing, where
       [max_int]/[min_int] would wrap; every coordinate lies in
       [-1, max cols rows]. *)
    let far = 1 lsl 40 in
    let fx0 = Array.make n_nets far and fx1 = Array.make n_nets (-far) in
    let fy0 = Array.make n_nets far and fy1 = Array.make n_nets (-far) in
    (* Incidence in CSR form. Net [ni]'s placed BLEs, each once, are
       [net_bles.(net_off.(ni))] to [net_bles.(net_off.(ni + 1) - 1)];
       BLE [bi]'s nets, one entry per pin, are [ble_nets.(ble_off.(bi))]
       to [ble_nets.(ble_off.(bi + 1) - 1)]. [last.(bi)] is the last
       net that listed [bi], so a BLE on a net twice is kept once. *)
    let net_off = Array.make (n_nets + 1) 0 in
    let ble_off = Array.make (placeable + 1) 0 in
    let last = Array.make placeable (-1) in
    Array.iteri
      (fun ni pins ->
        List.iter
          (fun e ->
            match e with
            | `Ble bi when bi < placeable ->
                ble_off.(bi + 1) <- ble_off.(bi + 1) + 1;
                if last.(bi) <> ni then begin
                  last.(bi) <- ni;
                  net_off.(ni + 1) <- net_off.(ni + 1) + 1
                end
            | _ -> (
                match entity_pos e with
                | Some t ->
                    fx0.(ni) <- min fx0.(ni) t.x;
                    fx1.(ni) <- max fx1.(ni) t.x;
                    fy0.(ni) <- min fy0.(ni) t.y;
                    fy1.(ni) <- max fy1.(ni) t.y
                | None -> ()))
          pins)
      nets;
    for ni = 1 to n_nets do
      net_off.(ni) <- net_off.(ni) + net_off.(ni - 1)
    done;
    for bi = 1 to placeable do
      ble_off.(bi) <- ble_off.(bi) + ble_off.(bi - 1)
    done;
    let net_bles = Array.make net_off.(n_nets) 0 in
    let ble_nets = Array.make ble_off.(placeable) 0 in
    (* fill cursors: the next free entry of each row *)
    let net_fill = Array.sub net_off 0 n_nets in
    let ble_fill = Array.sub ble_off 0 placeable in
    Array.fill last 0 placeable (-1);
    Array.iteri
      (fun ni pins ->
        List.iter
          (function
            | `Ble bi when bi < placeable ->
                ble_nets.(ble_fill.(bi)) <- ni;
                ble_fill.(bi) <- ble_fill.(bi) + 1;
                if last.(bi) <> ni then begin
                  last.(bi) <- ni;
                  net_bles.(net_fill.(ni)) <- bi;
                  net_fill.(ni) <- net_fill.(ni) + 1
                end
            | `Ble _ | `Chain _ | `Fixed _ -> ())
          pins)
      nets;
    (* every placed BLE's coordinates, kept in step with [slot_of_ble]
       by [place] at every swap and undo, so reading a pin is one load
       per axis *)
    let ble_x = Array.init placeable (fun bi -> slot_x.(slot_of_ble.(bi))) in
    let ble_y = Array.init placeable (fun bi -> slot_y.(slot_of_ble.(bi))) in
    (* The reads below are unchecked. Each rests on one of these
       invariants, named where it is used:
       - (net) every net id in [ble_nets], and every [ni] passed to
         [hpwl], is below [n_nets], the length of [fx0], [fx1], [fy0],
         [fy1], [net_cost], [fresh] and [stamp], and [n_nets + 1] that
         of [net_off];
       - (ble) every BLE id in [net_bles], every [b1] drawn and every
         [b2 >= 0] read from [ble_of_slot] is below [placeable], the
         length of [slot_of_ble], [ble_x] and [ble_y], and
         [placeable + 1] that of [ble_off]; [ble_of_slot] only ever
         receives such ids and -1;
       - (csr) offsets never decrease and the last one is the length of
         its data array, so a row's entries are in bounds;
       - (slot) every slot, drawn below [n_slots] or read from
         [slot_of_ble], indexes [ble_of_slot], [slot_x] and [slot_y],
         all of length [n_slots]. *)
    let place bi s =
      (* (ble), (slot) *)
      Array.unsafe_set slot_of_ble bi s;
      Array.unsafe_set ble_of_slot s bi;
      Array.unsafe_set ble_x bi (Array.unsafe_get slot_x s);
      Array.unsafe_set ble_y bi (Array.unsafe_get slot_y s)
    in
    let hpwl ni =
      (* (net) *)
      let x0 = ref (Array.unsafe_get fx0 ni) in
      let x1 = ref (Array.unsafe_get fx1 ni) in
      let y0 = ref (Array.unsafe_get fy0 ni) in
      let y1 = ref (Array.unsafe_get fy1 ni) in
      (* (net) (csr) *)
      let first = Array.unsafe_get net_off ni in
      for k = first to Array.unsafe_get net_off (ni + 1) - 1 do
        (* (csr), then (ble) *)
        let bi = Array.unsafe_get net_bles k in
        let x = Array.unsafe_get ble_x bi and y = Array.unsafe_get ble_y bi in
        (* [d land (d asr 62)] is [min d 0]: the box grows without a
           data-dependent branch *)
        let d = x - !x0 in
        x0 := !x0 + (d land (d asr 62));
        let d = !x1 - x in
        x1 := !x1 - (d land (d asr 62));
        let d = y - !y0 in
        y0 := !y0 + (d land (d asr 62));
        let d = !y1 - y in
        y1 := !y1 - (d land (d asr 62))
      done;
      if !x0 > !x1 then 0 else !x1 - !x0 + (!y1 - !y0)
    in
    let net_cost = Array.init n_nets hpwl in
    (* [fresh.(ni)] is net [ni]'s cost after the swap of move
       [stamp.(ni)], so a net is recomputed once per move *)
    let fresh = Array.make n_nets 0 and stamp = Array.make n_nets 0 in
    let cached bi =
      let acc = ref 0 in
      (* (ble) (csr), then (net) *)
      let first = Array.unsafe_get ble_off bi in
      for k = first to Array.unsafe_get ble_off (bi + 1) - 1 do
        acc := !acc + Array.unsafe_get net_cost (Array.unsafe_get ble_nets k)
      done;
      !acc
    in
    let recompute move bi =
      let acc = ref 0 in
      (* (ble) (csr), then (net) *)
      let first = Array.unsafe_get ble_off bi in
      for k = first to Array.unsafe_get ble_off (bi + 1) - 1 do
        let ni = Array.unsafe_get ble_nets k in
        if Array.unsafe_get stamp ni <> move then begin
          Array.unsafe_set stamp ni move;
          Array.unsafe_set fresh ni (hpwl ni)
        end;
        acc := !acc + Array.unsafe_get fresh ni
      done;
      !acc
    in
    let commit bi =
      (* (ble) (csr), then (net) *)
      let first = Array.unsafe_get ble_off bi in
      for k = first to Array.unsafe_get ble_off (bi + 1) - 1 do
        let ni = Array.unsafe_get ble_nets k in
        Array.unsafe_set net_cost ni (Array.unsafe_get fresh ni)
      done
    in
    let temp =
      ref
        (float_of_int (max 1 (Array.fold_left ( + ) 0 net_cost))
        /. float_of_int (max 1 n_nets))
    in
    let cooling = 0.9995 in
    for move = 1 to anneal_moves do
      let b1 = Rng.int rng placeable in
      let s2 = Rng.int rng n_slots in
      (* (slot), (ble) *)
      let b2 = Array.unsafe_get ble_of_slot s2 in
      let s1 = Array.unsafe_get slot_of_ble b1 in
      if s1 <> s2 then begin
        (* [b2] is another BLE, or -1 for a free slot *)
        let before = cached b1 + if b2 >= 0 then cached b2 else 0 in
        place b1 s2;
        (* (slot) *)
        Array.unsafe_set ble_of_slot s1 b2;
        if b2 >= 0 then place b2 s1;
        let after =
          recompute move b1 + if b2 >= 0 then recompute move b2 else 0
        in
        (* [max !temp 1e-3] without the polymorphic [max], which boxes *)
        let t = if !temp >= 1e-3 then !temp else 1e-3 in
        let delta = after - before in
        if delta > 0
           && Rng.float rng 1.0 >= exp (-.float_of_int delta /. t)
        then begin
          place b1 s1;
          (* (slot) *)
          Array.unsafe_set ble_of_slot s2 b2;
          if b2 >= 0 then place b2 s2
        end
        else begin
          commit b1;
          if b2 >= 0 then commit b2
        end
      end;
      temp := !temp *. cooling
    done
  end;
  (* ---------------- routing ----------------
     Per-net trunk-and-branch: one horizontal trunk along the median
     row of the net's pins, one vertical branch per distinct pin
     column. Tracks are shared within a net, as in a real fabric. *)
  let h_usage = Array.make_matrix (rows + 1) (cols + 2) 0 in
  let v_usage = Array.make_matrix (cols + 2) (rows + 1) 0 in
  let clampx x = max 0 (min (cols + 1) (x + 1)) in
  let clampy y = max 0 (min rows y) in
  let wirelength = ref 0 in
  let use_h y x0 x1 =
    let lo = min x0 x1 and hi = max x0 x1 in
    for x = lo to hi - 1 do
      h_usage.(y).(x) <- h_usage.(y).(x) + 1;
      incr wirelength
    done
  in
  let use_v x y0 y1 =
    let lo = min y0 y1 and hi = max y0 y1 in
    for y = lo to hi - 1 do
      v_usage.(x).(y) <- v_usage.(x).(y) + 1;
      incr wirelength
    done
  in
  let route_net positions =
    let xs = List.map (fun (t : tile) -> clampx t.x) positions in
    let ys = List.map (fun (t : tile) -> clampy t.y) positions in
    let sorted_ys = List.sort compare ys in
    let trunk_y = List.nth sorted_ys (List.length sorted_ys / 2) in
    let xmin = List.fold_left min (cols + 1) xs in
    let xmax = List.fold_left max 0 xs in
    use_h trunk_y xmin xmax;
    (* one branch per distinct column *)
    let cols_seen = Hashtbl.create 8 in
    List.iter2
      (fun x y ->
        let reach = Hashtbl.find_opt cols_seen x in
        let need =
          match reach with
          | Some (lo, hi) -> y < lo || y > hi
          | None -> y <> trunk_y
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
      (* chain-to-chain nets ride the dedicated cascade wiring of the
         MUX-chain tiles and do not consume channel tracks *)
      let all_chain =
        pins <> []
        && List.for_all (function `Chain _ -> true | `Ble _ | `Fixed _ -> false) pins
      in
      if not all_chain then begin
        let positions = List.filter_map entity_pos pins in
        match positions with [] | [ _ ] -> () | ps -> route_net ps
      end)
    nets;
  let cap = p.Style.channel_width in
  let max_congestion = ref 0 and overflow = ref 0 in
  Array.iter
    (fun row ->
      Array.iter
        (fun u ->
          if u > !max_congestion then max_congestion := u;
          if u > cap then incr overflow)
        row)
    h_usage;
  Array.iter
    (fun col ->
      Array.iter
        (fun u ->
          if u > !max_congestion then max_congestion := u;
          if u > cap then incr overflow)
        col)
    v_usage;
  (* ---------------- results ---------------- *)
  let of_cell = Hashtbl.create 64 in
  Array.iteri
    (fun ci _ ->
      match cell_pos ci with
      | Some t -> Hashtbl.replace of_cell ci t
      | None -> ())
    cells;
  let tiles_touched = Hashtbl.create 32 in
  Array.iteri
    (fun bi _ ->
      if bi < placeable then begin
        let t = tile_of_slot slot_of_ble.(bi) in
        Hashtbl.replace tiles_touched (t.x, t.y) ()
      end)
    bles;
  let fit =
    match over_capacity with
    | Some s -> Error s
    | None -> if !overflow > 0 then Error Fabric.Routing_short else Ok ()
  in
  {
    fabric;
    placement =
      {
        of_cell;
        used_tiles = Hashtbl.length tiles_touched;
        used_luts;
        used_ffs;
        used_chain;
      };
    routes =
      {
        wirelength = !wirelength;
        max_congestion = !max_congestion;
        overflow_segments = !overflow;
      };
    fit;
    utilization = Fabric.utilization fabric ~used_luts;
    tile_utilization =
      (let tiles = Fabric.clb_tiles fabric in
       if tiles = 0 then 0.0
       else float_of_int (Hashtbl.length tiles_touched) /. float_of_int tiles);
  }

type fit_counts = {
  used_luts : int;
  lut_capacity : int;
  used_ffs : int;
  ff_capacity : int;
  used_chain : int;
  chain_capacity : int;
  io_pins : int option;
  io_capacity : int;
  max_congestion : int;
  channel_width : int;
  overflow_segments : int;
}

let fit_counts ?netlist (r : result) =
  {
    used_luts = r.placement.used_luts;
    lut_capacity = Fabric.lut_capacity r.fabric;
    used_ffs = r.placement.used_ffs;
    ff_capacity = Fabric.ff_capacity r.fabric;
    used_chain = r.placement.used_chain;
    chain_capacity = r.fabric.Fabric.chain_slots;
    io_pins =
      Option.map
        (fun nl ->
          List.length (Netlist.inputs nl) + List.length (Netlist.outputs nl))
        netlist;
    io_capacity = Fabric.io_capacity r.fabric;
    max_congestion = r.routes.max_congestion;
    channel_width = (Style.params r.fabric.Fabric.style).Style.channel_width;
    overflow_segments = r.routes.overflow_segments;
  }

let count_triples (c : fit_counts) =
  List.concat
    [
      [
        ("luts", c.used_luts, c.lut_capacity);
        ("ffs", c.used_ffs, c.ff_capacity);
        ("chain", c.used_chain, c.chain_capacity);
      ];
      (match c.io_pins with
      | Some pins -> [ ("io_pins", pins, c.io_capacity) ]
      | None -> []);
      [ ("congestion", c.max_congestion, c.channel_width) ];
    ]

let diag_of_fit ?netlist (r : result) =
  match r.fit with
  | Ok () -> None
  | Error s ->
      let c = fit_counts ?netlist r in
      let demand, capacity =
        match s with
        | Fabric.Luts_short -> (c.used_luts, c.lut_capacity)
        | Fabric.Ffs_short -> (c.used_ffs, c.ff_capacity)
        | Fabric.Chain_short -> (c.used_chain, c.chain_capacity)
        | Fabric.Routing_short -> (
            let congestion = (c.max_congestion, c.channel_width) in
            (* routing can run short on channels or on boundary pins;
               report whichever actually exceeded *)
            match c.io_pins with
            | Some pins when pins > c.io_capacity -> (pins, c.io_capacity)
            | _ -> congestion)
      in
      Some
        (Shell_util.Diag.msgf
           ~payload:
             (Fabric.Shortage
                { shortage = s; demand; capacity; counts = count_triples c })
           "fit check failed on %s: %s short (demand %d, capacity %d)"
           (Format.asprintf "%a" Fabric.pp r.fabric)
           (Fabric.shortage_name s) demand capacity)

let fit_loop ?seed ?(max_grows = 16) ~style nl =
  let cells = Netlist.cells nl in
  let luts = ref 0 and ffs = ref 0 and chain = ref 0 in
  Array.iter
    (fun c ->
      match c.Cell.kind with
      | Cell.Lut _ -> incr luts
      | Cell.Dff -> incr ffs
      | Cell.Mux2 | Cell.Mux4 -> incr chain
      | _ -> ())
    cells;
  let fabric = Fabric.size_for style ~luts:!luts ~user_ffs:!ffs ~chain_muxes:!chain in
  let rec go fabric grows =
    let res =
      Obs.with_span "pnr.attempt" (fun () ->
          let res = run ?seed fabric nl in
          Obs.span_add "cols" fabric.Fabric.cols;
          Obs.span_add "rows" fabric.Fabric.rows;
          Obs.span_add "fit" (match res.fit with Ok () -> 1 | Error _ -> 0);
          res)
    in
    match res.fit with
    | Ok () -> res
    | Error shortage when grows > 0 ->
        Obs.incr m_retries;
        go (Fabric.grow fabric shortage) (grows - 1)
    | Error _ -> res
  in
  go fabric max_grows
