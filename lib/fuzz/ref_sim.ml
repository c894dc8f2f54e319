module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell

type t = {
  netlist : Netlist.t;
  comb_order : int array;  (* topo order, sequential cells filtered out *)
  cells : Cell.t array;
  nets : bool array;
  dff_state : bool array;  (* indexed by position in [seq_cells] *)
  seq_cells : int array;  (* cell indices of Dffs, in netlist order *)
  latch_state : bool array;
  latch_cells : int array;
}

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
    | None -> Array.make (Array.length latch_cells) false
    | Some c ->
        if Array.length c <> Array.length latch_cells then
          invalid_arg "Ref_sim.create: config length mismatch";
        Array.copy c
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
    nets = Array.make (max (Netlist.num_nets netlist) 1) false;
    dff_state = Array.make (Array.length seq_cells) false;
    seq_cells;
    latch_state;
    latch_cells;
  }

let reset t = Array.fill t.dff_state 0 (Array.length t.dff_state) false

let load_ports t ?keys ins =
  let in_nets = Netlist.input_nets t.netlist in
  if Array.length ins <> Array.length in_nets then
    invalid_arg "Ref_sim: input vector length mismatch";
  Array.iteri (fun i net -> t.nets.(net) <- ins.(i)) in_nets;
  let key_nets = Netlist.key_nets t.netlist in
  let keys =
    match keys with
    | Some k ->
        if Array.length k <> Array.length key_nets then
          invalid_arg "Ref_sim: key vector length mismatch";
        k
    | None -> Array.make (Array.length key_nets) false
  in
  Array.iteri (fun i net -> t.nets.(net) <- keys.(i)) key_nets

let propagate t =
  (* Expose stored state before evaluating the combinational cone. *)
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
      nets.(c.Cell.out) <- Cell.eval_in c.Cell.kind nets c.Cell.ins)
    t.comb_order

let read_outputs t =
  Array.map (fun net -> t.nets.(net)) (Netlist.output_nets t.netlist)

let eval_comb t ?keys ins =
  load_ports t ?keys ins;
  propagate t;
  read_outputs t

let step t ?keys ins =
  let outs = eval_comb t ?keys ins in
  Array.iteri
    (fun i ci -> t.dff_state.(i) <- t.nets.(t.cells.(ci).Cell.ins.(0)))
    t.seq_cells;
  outs

let net_values t = Array.copy t.nets
