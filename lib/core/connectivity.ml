module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Digraph = Shell_graph.Digraph
module Centrality = Shell_graph.Centrality
module Estimate = Shell_synth.Estimate

type block = {
  name : string;
  cells : int list;
  attrs : Score.attrs;
  route_fraction : float;
  lut_estimate : float;
}

type t = {
  blocks : block array;
  graph : Shell_graph.Digraph.t;
}

let genericity cells nl =
  (* EigC weight: the paper prefers neighbours of generic (masking)
     gate types; muxes and and/or dominate routing-friendly logic *)
  let total = ref 0 and generic = ref 0 in
  List.iter
    (fun ci ->
      match (Netlist.cell nl ci).Cell.kind with
      | Cell.Mux2 | Cell.Mux4 | Cell.And | Cell.Or | Cell.Nand | Cell.Nor ->
          incr total;
          incr generic
      | Cell.Xor | Cell.Xnor | Cell.Not | Cell.Lut _ -> incr total
      | Cell.Buf | Cell.Const _ | Cell.Dff | Cell.Config_latch -> ())
    cells;
  if !total = 0 then 0.0 else float_of_int !generic /. float_of_int !total

let route_frac cells nl =
  let total = ref 0 and routing = ref 0 in
  List.iter
    (fun ci ->
      match (Netlist.cell nl ci).Cell.kind with
      | Cell.Mux2 | Cell.Mux4 | Cell.Buf ->
          incr total;
          incr routing
      | Cell.Dff | Cell.Config_latch | Cell.Const _ -> ()
      | Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor
      | Cell.Not | Cell.Lut _ ->
          incr total)
    cells;
  if !total = 0 then 0.0 else float_of_int !routing /. float_of_int !total

let analyze nl =
  let cells = Netlist.cells nl in
  (* group cells by origin, preserving first-appearance order *)
  let order = ref [] in
  let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i c ->
      let key = c.Cell.origin in
      match Hashtbl.find_opt groups key with
      | Some l -> l := i :: !l
      | None ->
          Hashtbl.add groups key (ref [ i ]);
          order := key :: !order)
    cells;
  let names = Array.of_list (List.rev !order) in
  let n = Array.length names in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i nm -> Hashtbl.add index_of nm i) names;
  let block_of_cell = Array.make (Array.length cells) (-1) in
  Array.iteri
    (fun bi nm ->
      match Hashtbl.find_opt groups nm with
      | Some l -> List.iter (fun ci -> block_of_cell.(ci) <- bi) !l
      | None -> ())
    names;
  (* block edges via net crossings *)
  let edges = ref [] in
  let pi_reader = Array.make n false and po_driver = Array.make n false in
  let input_nets = Netlist.input_nets nl in
  let is_input = Array.make (max (Netlist.num_nets nl) 1) false in
  Array.iter (fun net -> is_input.(net) <- true) input_nets;
  Array.iteri
    (fun ci c ->
      let bi = block_of_cell.(ci) in
      Array.iter
        (fun net ->
          if is_input.(net) then pi_reader.(bi) <- true
          else
            match Netlist.driver nl net with
            | Some cj ->
                let bj = block_of_cell.(cj) in
                if bj <> bi then edges := (bj, bi) :: !edges
            | None -> ())
        c.Cell.ins)
    cells;
  Array.iter
    (fun net ->
      match Netlist.driver nl net with
      | Some ci -> po_driver.(block_of_cell.(ci)) <- true
      | None -> ())
    (Netlist.output_nets nl);
  let graph = Digraph.make ~n ~edges:!edges in
  let sources = ref [] and sinks = ref [] in
  for b = 0 to n - 1 do
    if pi_reader.(b) then sources := b :: !sources;
    if po_driver.(b) then sinks := b :: !sinks
  done;
  let sources = !sources and sinks = !sinks in
  let idgc = Centrality.in_degree graph in
  let odgc = Centrality.out_degree graph in
  let clsc = Centrality.closeness graph ~sources ~sinks in
  let btwc = Centrality.betweenness graph ~sources ~sinks in
  let block_cells bi = List.rev !(Hashtbl.find groups names.(bi)) in
  let gen = Array.init n (fun bi -> genericity (block_cells bi) nl) in
  let eigc = Centrality.eigenvector ~weight:(fun b -> 0.25 +. gen.(b)) graph in
  let lut_raw =
    Array.init n (fun bi -> Estimate.estimate_cells nl (block_cells bi))
  in
  let lut_max = Array.fold_left Float.max 1.0 lut_raw in
  let blocks =
    Array.init n (fun bi ->
        {
          name = names.(bi);
          cells = block_cells bi;
          attrs =
            {
              Score.idgc = idgc.(bi);
              odgc = odgc.(bi);
              clsc = clsc.(bi);
              btwc = btwc.(bi);
              eigc = eigc.(bi);
              lutr = lut_raw.(bi) /. lut_max;
            };
          route_fraction = route_frac (block_cells bi) nl;
          lut_estimate = lut_raw.(bi);
        })
  in
  { blocks; graph }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let block_index t needle =
  let rec go i =
    if i >= Array.length t.blocks then None
    else if contains ~sub:needle t.blocks.(i).name then Some i
    else go (i + 1)
  in
  go 0

let blocks_matching t needle =
  Array.to_list
    (Array.of_seq
       (Seq.filter_map
          (fun (i, b) -> if contains ~sub:needle b.name then Some i else None)
          (Array.to_seqi t.blocks)))

let distance t seeds =
  (* undirected BFS over the block graph *)
  let n = Array.length t.blocks in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  List.iter
    (fun b ->
      if dist.(b) = max_int then begin
        dist.(b) <- 0;
        Queue.add b queue
      end)
    seeds;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let visit v =
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v queue
      end
    in
    Array.iter visit (Digraph.succs t.graph u);
    Array.iter visit (Digraph.preds t.graph u)
  done;
  dist

let coverage t seeds = Digraph.coverage t.graph seeds
