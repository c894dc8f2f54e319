module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab

(* Backward observability-don't-care analysis.

   A net is OBSERVABLE when toggling its value (alone, holding every
   other net consistent with the proven constant facts) can change some
   primary output. We compute the complement conservatively: a net is
   marked unobservable only when every one of its reads is provably
   masked, so [observable] is an over-approximation of true
   observability — safe to act on its negation.

   Each masking rule below is sound on its own terms: it declares a
   read (cell, input position) masked only when, under EVERY assignment
   consistent with the constant facts, toggling that input alone cannot
   change the cell's output. Joint toggling through reconvergent paths
   is handled by the per-read granularity — a net that also reaches the
   cell through an unmasked input stays observable through that read. *)

type t = {
  observable : bool array;  (** per net: value can still reach an output *)
  masked_reads : int;  (** reads cut by a masking rule *)
  const_cuts : int;  (** nets cut because they are proven constants *)
}

(* A LUT's masked inputs, as a bitmask (bit [i] set when input [i] is
   masked): an input is masked when it is pinned, or when the residual
   table over the unknown inputs no longer depends on it. One
   cofactoring serves every input. *)
let lut_mask values tt ins =
  let vals = Array.map (fun net -> values.(net)) ins in
  let r = Dataflow.residual_table tt vals in
  (* [j]: position of input [i] among the unknown inputs *)
  let mask = ref 0 and j = ref 0 in
  Array.iteri
    (fun i v ->
      match Dataflow.known v with
      | Some _ -> mask := !mask lor (1 lsl i)
      | None ->
          if not (Truthtab.depends_on r !j) then mask := !mask lor (1 lsl i);
          incr j)
    vals;
  !mask

(* Is the read of input position [i] of cell [c] masked under the
   constant facts? *)
let input_masked values (c : Cell.t) i =
  let ins = c.Cell.ins in
  let v j = values.(ins.(j)) in
  let kv j = Dataflow.known (v j) in
  match c.Cell.kind with
  | Cell.Const _ -> true
  | Cell.And | Cell.Nand ->
      (* the other operand is a proven controlling 0 *)
      kv (1 - i) = Some false
  | Cell.Or | Cell.Nor -> kv (1 - i) = Some true
  | Cell.Xor | Cell.Xnor ->
      (* x xor x is constant: toggling the shared net flips both
         operands at once, leaving the output fixed *)
      ins.(0) = ins.(1)
  | Cell.Not | Cell.Buf | Cell.Dff | Cell.Config_latch -> false
  | Cell.Mux2 -> (
      match i with
      | 0 ->
          (* select masked when it provably cannot steer: arms are the
             same net, the same proven constant, or the select itself
             is pinned *)
          ins.(1) = ins.(2)
          || (match (kv 1, kv 2) with
             | Some a, Some b -> a = b
             | _ -> false)
          || kv 0 <> None
      | 1 -> kv 0 = Some true (* arm a dead when select pinned high *)
      | 2 -> kv 0 = Some false
      | _ -> false)
  | Cell.Mux4 -> (
      (* ins = [|s0; s1; a; b; c; d|], {s1,s0} selects arm index *)
      let arm_reachable idx =
        (match kv 0 with
        | Some s0 -> (if s0 then 1 else 0) = idx land 1
        | None -> true)
        && match kv 1 with
           | Some s1 -> (if s1 then 1 else 0) = idx lsr 1
           | None -> true
      in
      match i with
      | 0 | 1 ->
          let arms_equal =
            ins.(2) = ins.(3) && ins.(3) = ins.(4) && ins.(4) = ins.(5)
          in
          arms_equal || kv i <> None
      | _ -> not (arm_reachable (i - 2)))
  | Cell.Lut tt -> lut_mask values tt ins land (1 lsl i) <> 0

(* [input_masked] for every input of [c] at once, as a bitmask *)
let cell_mask values (c : Cell.t) =
  match c.Cell.kind with
  | Cell.Lut tt -> lut_mask values tt c.Cell.ins
  | _ ->
      let mask = ref 0 in
      for i = 0 to Array.length c.Cell.ins - 1 do
        if input_masked values c i then mask := !mask lor (1 lsl i)
      done;
      !mask

let masks values nl = Array.map (cell_mask values) (N.cells nl)

let analyze ?values ?masked nl =
  let values =
    match values with Some v -> v | None -> Dataflow.const_values nl
  in
  let masked = match masked with Some m -> m | None -> masks values nl in
  let n = N.num_nets nl in
  let cells = N.cells nl in
  let ncells = Array.length cells in
  (* every driver of every net, ascending, as a CSR table: a multi-driven
     net passes observability to each of its drivers *)
  let first = Array.make (n + 1) 0 in
  Array.iter
    (fun (c : Cell.t) -> first.(c.Cell.out + 1) <- first.(c.Cell.out + 1) + 1)
    cells;
  for net = 1 to n do
    first.(net) <- first.(net) + first.(net - 1)
  done;
  let drivers = Array.make ncells 0 in
  let fill = Array.sub first 0 (max n 1) in
  Array.iteri
    (fun ci (c : Cell.t) ->
      drivers.(fill.(c.Cell.out)) <- ci;
      fill.(c.Cell.out) <- fill.(c.Cell.out) + 1)
    cells;
  (* observability is the least set holding the non-constant outputs and
     closed under unmasked reads of observable cells, so a worklist over
     nets reaches the fixpoint the sweeps did, in any visiting order:
     each net enters at most once, each driver's inputs are read once *)
  let observable = Array.make (max n 1) false in
  let stack = Array.make (max n 1) 0 and sp = ref 0 in
  (* a proven-constant net carries no toggle: never observable *)
  let mark net =
    if
      net >= 0 && net < n
      && (not observable.(net))
      && Dataflow.known values.(net) = None
    then begin
      observable.(net) <- true;
      stack.(!sp) <- net;
      incr sp
    end
  in
  Array.iter mark (N.output_nets nl);
  while !sp > 0 do
    decr sp;
    let net = stack.(!sp) in
    for d = first.(net) to first.(net + 1) - 1 do
      let ci = drivers.(d) in
      let m = masked.(ci) in
      Array.iteri
        (fun i inp -> if m land (1 lsl i) = 0 then mark inp)
        cells.(ci).Cell.ins
    done
  done;
  (* diagnostics over the fixpoint *)
  let masked_reads = ref 0 and const_cuts = ref 0 in
  Array.iteri
    (fun ci (c : Cell.t) ->
      if observable.(c.Cell.out) then
        Array.iteri
          (fun i _ ->
            if masked.(ci) land (1 lsl i) <> 0 then incr masked_reads)
          c.Cell.ins)
    cells;
  for net = 0 to n - 1 do
    if Dataflow.known values.(net) <> None then incr const_cuts
  done;
  { observable; masked_reads = !masked_reads; const_cuts = !const_cuts }
