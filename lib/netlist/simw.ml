(* Word-level (bit-parallel) netlist simulation: one machine word per
   net, bit l carrying test vector l. Shares Sim's contract exactly —
   same topo order, same port loading, same Dff/Config_latch handling —
   so the two engines are drop-in interchangeable; Simw just evaluates
   up to [width] vectors per pass.

   Lane discipline: internal net words may carry junk in lanes >= the
   caller's active lane count (lnot turns masked-out zeros into ones).
   That junk is harmless — word ops are lane-wise — and is masked off
   only at read-out boundaries (read_outputs, net_values). Sequential
   state is per-lane: each Dff holds one word, lane l being the flop
   value of simulation instance l; Config_latch state is broadcast
   (0 / all-ones) because the bitstream is shared by every lane. *)

module Obs = Shell_util.Obs

type t = {
  netlist : Netlist.t;
  comb_order : int array;  (* topo order, sequential cells filtered out *)
  cells : Cell.t array;
  nets : int array;
  dff_state : int array;  (* indexed by position in [seq_cells]; per-lane *)
  seq_cells : int array;
  latch_state : int array;  (* broadcast words: 0 or all-ones *)
  latch_cells : int array;
}

let width = Sys.int_size

let lane_mask lanes =
  if lanes < 1 || lanes > width then invalid_arg "Simw: bad lane count"
  else if lanes = width then -1
  else (1 lsl lanes) - 1

let broadcast b = if b then -1 else 0

let create ?config netlist =
  let cells = Netlist.cells netlist in
  let order = Netlist.topo_order netlist in
  let seq = ref [] and latches = ref [] in
  Array.iteri
    (fun i c ->
      match c.Cell.kind with
      | Cell.Dff -> seq := i :: !seq
      | Cell.Config_latch -> latches := i :: !latches
      | _ -> ())
    cells;
  let seq_cells = Array.of_list (List.rev !seq) in
  let latch_cells = Array.of_list (List.rev !latches) in
  let latch_state =
    match config with
    | None -> Array.make (Array.length latch_cells) 0
    | Some c ->
        if Array.length c <> Array.length latch_cells then
          invalid_arg "Simw.create: config length mismatch";
        Array.map broadcast c
  in
  let comb_order =
    Array.of_seq
      (Seq.filter
         (fun ci -> not (Cell.is_sequential cells.(ci).Cell.kind))
         (Array.to_seq order))
  in
  {
    netlist;
    comb_order;
    cells;
    nets = Array.make (max (Netlist.num_nets netlist) 1) 0;
    dff_state = Array.make (Array.length seq_cells) 0;
    seq_cells;
    latch_state;
    latch_cells;
  }

let netlist t = t.netlist

let reset t = Array.fill t.dff_state 0 (Array.length t.dff_state) 0

let load_ports t ?keys ins =
  let in_nets = Netlist.input_nets t.netlist in
  if Array.length ins <> Array.length in_nets then
    invalid_arg "Simw: input word count mismatch";
  Array.iteri (fun i net -> t.nets.(net) <- ins.(i)) in_nets;
  let key_nets = Netlist.key_nets t.netlist in
  match keys with
  | Some k ->
      if Array.length k <> Array.length key_nets then
        invalid_arg "Simw: key vector length mismatch";
      Array.iteri (fun i net -> t.nets.(net) <- broadcast k.(i)) key_nets
  | None -> Array.iter (fun net -> t.nets.(net) <- 0) key_nets

let propagate t lanes =
  Array.iteri
    (fun i ci -> t.nets.(t.cells.(ci).Cell.out) <- t.dff_state.(i))
    t.seq_cells;
  Array.iteri
    (fun i ci -> t.nets.(t.cells.(ci).Cell.out) <- t.latch_state.(i))
    t.latch_cells;
  let nets = t.nets and cells = t.cells in
  Array.iter
    (fun ci ->
      let c = cells.(ci) in
      nets.(c.Cell.out) <- Cell.eval_word_in c.Cell.kind nets c.Cell.ins)
    t.comb_order;
  Obs.incr Sim_obs.words;
  Obs.add Sim_obs.vectors lanes;
  Obs.add Sim_obs.cells (Array.length t.comb_order)

let read_outputs t ~lanes =
  let m = lane_mask lanes in
  Array.map (fun net -> t.nets.(net) land m) (Netlist.output_nets t.netlist)

let eval_comb t ?keys ?(lanes = width) ins =
  let _ = lane_mask lanes in
  (* validate *)
  load_ports t ?keys ins;
  propagate t lanes;
  read_outputs t ~lanes

let step t ?keys ?(lanes = width) ins =
  let outs = eval_comb t ?keys ~lanes ins in
  Array.iteri
    (fun i ci -> t.dff_state.(i) <- t.nets.(t.cells.(ci).Cell.ins.(0)))
    t.seq_cells;
  outs

let net_values t ~lanes =
  let m = lane_mask lanes in
  Array.map (fun w -> w land m) t.nets

let num_config_latches = Sim.num_config_latches

(* ---------------- packing helpers ---------------- *)

let pack vecs =
  let n = Array.length vecs in
  if n < 1 || n > width then invalid_arg "Simw.pack: bad vector count";
  let bits = Array.length vecs.(0) in
  let words = Array.make bits 0 in
  for l = 0 to n - 1 do
    let v = vecs.(l) in
    if Array.length v <> bits then invalid_arg "Simw.pack: ragged vectors";
    for i = 0 to bits - 1 do
      if v.(i) then words.(i) <- words.(i) lor (1 lsl l)
    done
  done;
  words

let lane words l =
  if l < 0 || l >= width then invalid_arg "Simw.lane: bad lane";
  Array.map (fun w -> (w lsr l) land 1 = 1) words

let first_lane w =
  if w = 0 then invalid_arg "Simw.first_lane: zero word";
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

let mismatch a b =
  let d = ref 0 in
  Array.iteri (fun i w -> d := !d lor (w lxor b.(i))) a;
  !d

let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c
