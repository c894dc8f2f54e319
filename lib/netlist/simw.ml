(* Word-level (bit-parallel) netlist simulation: one machine word per
   net, bit l carrying test vector l. Its contract is the scalar
   reference's (lib/fuzz/ref_sim.ml) exactly — same topo order, same
   port loading, same Dff/Config_latch handling — lane by lane; it just
   evaluates up to [width] vectors per pass.

   Lane discipline: internal net words may carry junk in lanes >= the
   caller's active lane count (lnot turns masked-out zeros into ones).
   That junk is harmless — word ops are lane-wise — and is masked off
   only at read-out boundaries (read_outputs, net_values). Sequential
   state is per-lane: each Dff holds one word, lane l being the flop
   value of simulation instance l; Config_latch state is broadcast
   (0 / all-ones) because the bitstream is shared by every lane. *)

module Obs = Shell_util.Obs

(* Snapshots list metrics in registration order, and the stable ones
   are pinned: keep these three in this order. *)
let m_vectors =
  Obs.counter ~stable:true
    ~help:"test vectors simulated (scalar: 1/propagate; word: lanes/propagate)"
    "sim_vectors"

let m_words =
  Obs.counter ~stable:true
    ~help:"word-level propagations (Simw evaluations of the full cone)"
    "sim_words"

let m_cells =
  Obs.counter ~stable:true
    ~help:"combinational cell evaluations (one per cell per propagate)"
    "sim_cells_evaluated"

(* The combinational order is lowered once, at [create], into a flat
   int program. Each instruction is a head word [op lor (out lsl 4)],
   the opcode and the output net, followed by its operands:
   - 0 and, 1 or, 2 nand, 3 nor, 4 xor, 5 xnor: two nets;
   - 6 not, 7 buf: one net;
   - 8 mux2: the select, then the two arms;
   - 9 const0, 10 const1: none;
   - 11, LUTs and Mux4, which keep their cell's evaluator: the cell
     index. *)
type t = {
  program : int array;
  n_comb : int;  (* combinational cells in [program] *)
  cells : Cell.t array;
  nets : int array;
  in_nets : int array;
  key_nets : int array;
  out_nets : int array;
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

let compile cells order ~n_nets =
  let size ci =
    match cells.(ci).Cell.kind with
    | Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor -> 3
    | Cell.Not | Cell.Buf | Cell.Mux4 | Cell.Lut _ -> 2
    | Cell.Mux2 -> 4
    | Cell.Const _ -> 1
    | Cell.Dff | Cell.Config_latch -> 0
  in
  let program =
    Array.make (Array.fold_left (fun k ci -> k + size ci) 0 order) 0
  in
  let pc = ref 0 in
  let put v =
    program.(!pc) <- v;
    incr pc
  in
  (* [map_cells] can hand in cells no [add_cell] checked, and [run]
     reads the net store unchecked *)
  let check net =
    if net < 0 || net >= n_nets then invalid_arg "Simw.create: bad net"
  in
  let n_comb = ref 0 in
  Array.iter
    (fun ci ->
      let c = cells.(ci) in
      let ins = c.Cell.ins in
      check c.Cell.out;
      Array.iter check ins;
      let head op = put (op lor (c.Cell.out lsl 4)) in
      let op2 op =
        head op;
        put ins.(0);
        put ins.(1)
      in
      if not (Cell.is_sequential c.Cell.kind) then incr n_comb;
      match c.Cell.kind with
      | Cell.And -> op2 0
      | Cell.Or -> op2 1
      | Cell.Nand -> op2 2
      | Cell.Nor -> op2 3
      | Cell.Xor -> op2 4
      | Cell.Xnor -> op2 5
      | Cell.Not ->
          head 6;
          put ins.(0)
      | Cell.Buf ->
          head 7;
          put ins.(0)
      | Cell.Mux2 ->
          head 8;
          put ins.(0);
          put ins.(1);
          put ins.(2)
      | Cell.Const b -> head (if b then 10 else 9)
      | Cell.Mux4 | Cell.Lut _ ->
          head 11;
          put ci
      | Cell.Dff | Cell.Config_latch -> ())
    order;
  (program, !n_comb)

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
  let nets = Array.make (max (Netlist.num_nets netlist) 1) 0 in
  let program, n_comb = compile cells order ~n_nets:(Array.length nets) in
  {
    program;
    n_comb;
    cells;
    nets;
    in_nets = Netlist.input_nets netlist;
    key_nets = Netlist.key_nets netlist;
    out_nets = Netlist.output_nets netlist;
    dff_state = Array.make (Array.length seq_cells) 0;
    seq_cells;
    latch_state;
    latch_cells;
  }

let reset t = Array.fill t.dff_state 0 (Array.length t.dff_state) 0

let load_ports t ?keys ins =
  if Array.length ins <> Array.length t.in_nets then
    invalid_arg "Simw: input word count mismatch";
  Array.iteri (fun i net -> t.nets.(net) <- ins.(i)) t.in_nets;
  match keys with
  | Some k ->
      if Array.length k <> Array.length t.key_nets then
        invalid_arg "Simw: key vector length mismatch";
      Array.iteri (fun i net -> t.nets.(net) <- broadcast k.(i)) t.key_nets
  | None -> Array.iter (fun net -> t.nets.(net) <- 0) t.key_nets

(* [compile] checked every net id in the program against the net store,
   and every cell index in it is below [Array.length cells], so the loop
   reads without bounds checks. *)
let run (program : int array) (nets : int array) (cells : Cell.t array) =
  let len = Array.length program in
  let pc = ref 0 in
  while !pc < len do
    let p = !pc in
    let head = Array.unsafe_get program p in
    let out = head lsr 4 in
    match head land 15 with
    | (0 | 1 | 2 | 3 | 4 | 5) as op ->
        let a = Array.unsafe_get nets (Array.unsafe_get program (p + 1)) in
        let b = Array.unsafe_get nets (Array.unsafe_get program (p + 2)) in
        Array.unsafe_set nets out
          (match op with
          | 0 -> a land b
          | 1 -> a lor b
          | 2 -> lnot (a land b)
          | 3 -> lnot (a lor b)
          | 4 -> a lxor b
          | _ -> lnot (a lxor b));
        pc := p + 3
    | 6 ->
        Array.unsafe_set nets out
          (lnot (Array.unsafe_get nets (Array.unsafe_get program (p + 1))));
        pc := p + 2
    | 7 ->
        Array.unsafe_set nets out
          (Array.unsafe_get nets (Array.unsafe_get program (p + 1)));
        pc := p + 2
    | 8 ->
        let s = Array.unsafe_get nets (Array.unsafe_get program (p + 1)) in
        let a = Array.unsafe_get nets (Array.unsafe_get program (p + 2)) in
        let b = Array.unsafe_get nets (Array.unsafe_get program (p + 3)) in
        Array.unsafe_set nets out (lnot s land a lor (s land b));
        pc := p + 4
    | 9 ->
        Array.unsafe_set nets out 0;
        pc := p + 1
    | 10 ->
        Array.unsafe_set nets out (-1);
        pc := p + 1
    | _ ->
        let c = Array.unsafe_get cells (Array.unsafe_get program (p + 1)) in
        Array.unsafe_set nets out
          (Cell.eval_word_in c.Cell.kind nets c.Cell.ins);
        pc := p + 2
  done

let propagate t lanes =
  Array.iteri
    (fun i ci -> t.nets.(t.cells.(ci).Cell.out) <- t.dff_state.(i))
    t.seq_cells;
  Array.iteri
    (fun i ci -> t.nets.(t.cells.(ci).Cell.out) <- t.latch_state.(i))
    t.latch_cells;
  run t.program t.nets t.cells;
  Obs.incr m_words;
  Obs.add m_vectors lanes;
  Obs.add m_cells t.n_comb

let read_outputs t ~lanes =
  let m = lane_mask lanes in
  Array.map (fun net -> t.nets.(net) land m) t.out_nets

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

let num_config_latches nl =
  Netlist.count_kind nl (function Cell.Config_latch -> true | _ -> false)

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
