(* What is known about a net, one int per net so that learning a fact
   and compressing an alias path allocate nothing: [unknown], one of
   the two constants, or an alias of another net (its id, >= 0). *)
let unknown = -1
let const_false = -2
let const_true = -3
let const b = if b then const_true else const_false

let bind_keys nl key =
  let key_nets = Netlist.key_nets nl in
  if Array.length key <> Array.length key_nets then
    invalid_arg "Specialize.bind_keys: key length mismatch";
  let n_nets = max (Netlist.num_nets nl) 1 in
  let facts = Array.make n_nets unknown in
  Array.iteri (fun i net -> facts.(net) <- const key.(i)) key_nets;
  (* resolve through alias chains, path-compressing as we go *)
  let rec resolve net =
    let f = facts.(net) in
    if f < 0 then net
    else
      let root = resolve f in
      if root <> f then facts.(net) <- root;
      root
  in
  (* 0 or 1 for a constant net, -1 otherwise *)
  let value net =
    let f = facts.(resolve net) in
    if f = const_true then 1 else if f = const_false then 0 else -1
  in
  let cells = Netlist.cells nl in
  let n = Array.length cells in
  let folded = Array.make n false in
  (* net store an all-constant cell is evaluated from *)
  let store = Array.make n_nets false in
  (* The fact cell [c] folds to, or [unknown] while it does not fold. *)
  let fold (c : Cell.t) =
    let ins = c.Cell.ins in
    let arity = Array.length ins in
    let all_const = ref (arity > 0) in
    for j = 0 to arity - 1 do
      let v = value ins.(j) in
      if v < 0 then all_const := false else store.(ins.(j)) <- v = 1
    done;
    if !all_const then const (Cell.eval_in c.Cell.kind store ins)
    else
      match c.Cell.kind with
      | Cell.Const b -> const b
      | Cell.Buf -> resolve ins.(0)
      | Cell.And ->
          let a = value ins.(0) and b = value ins.(1) in
          if a = 0 || b = 0 then const_false
          else if a = 1 then resolve ins.(1)
          else if b = 1 then resolve ins.(0)
          else unknown
      | Cell.Or ->
          let a = value ins.(0) and b = value ins.(1) in
          if a = 1 || b = 1 then const_true
          else if a = 0 then resolve ins.(1)
          else if b = 0 then resolve ins.(0)
          else unknown
      | Cell.Nand ->
          if value ins.(0) = 0 || value ins.(1) = 0 then const_true else unknown
      | Cell.Nor ->
          if value ins.(0) = 1 || value ins.(1) = 1 then const_false
          else unknown
      | Cell.Xor ->
          if value ins.(0) = 0 then resolve ins.(1)
          else if value ins.(1) = 0 then resolve ins.(0)
          else unknown
      | Cell.Xnor ->
          if value ins.(0) = 1 then resolve ins.(1)
          else if value ins.(1) = 1 then resolve ins.(0)
          else unknown
      | Cell.Mux2 ->
          let s = value ins.(0) in
          if s >= 0 then resolve ins.(if s = 1 then 2 else 1)
          else if resolve ins.(1) = resolve ins.(2) then resolve ins.(1)
          else unknown
      | Cell.Mux4 ->
          let s0 = value ins.(0) and s1 = value ins.(1) in
          if s0 >= 0 && s1 >= 0 then resolve ins.(2 + (s0 lor (s1 lsl 1)))
          else unknown
      | Cell.Not | Cell.Lut _ | Cell.Dff | Cell.Config_latch -> unknown
  in
  (* Index-order sweeps to a fixpoint. A worklist over fanouts would
     miss folds: a [Mux2] whose arms come to share an alias root folds
     although none of its own input nets changed. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let c = cells.(i) in
      if not (folded.(i) || Cell.is_sequential c.Cell.kind) then begin
        let f = fold c in
        if f <> unknown then begin
          folded.(i) <- true;
          facts.(c.Cell.out) <- f;
          changed := true
        end
      end
    done
  done;
  (* The folded view: a net is its alias root, or [n_nets + b] for the
     constant [b]. *)
  let view net =
    let r = resolve net in
    let f = facts.(r) in
    if f = unknown then r else n_nets + if f = const_true then 1 else 0
  in
  (* Rebuilding without the folded cells and then dropping dead cells
     (the two-step build this one replaces) made each constant's cell
     the first time a cell read it, output first: just before the first
     unfolded cell with a net of that constant, or after every cell when
     an output read it first. The result keeps those places. *)
  let const_at = [| -1; -1 |] and first = ref 0 in
  let place pos net =
    let b = view net - n_nets in
    if b >= 0 && const_at.(b) < 0 then begin
      if const_at.(1 - b) < 0 then first := b;
      const_at.(b) <- pos
    end
  in
  for i = 0 to n - 1 do
    if not folded.(i) then begin
      let c = cells.(i) in
      place i c.Cell.out;
      for j = 0 to Array.length c.Cell.ins - 1 do
        place i c.Cell.ins.(j)
      done
    end
  done;
  List.iter (fun (_, net) -> place n net) (Netlist.outputs nl);
  let first = !first in
  (* Visit the cells of the result in order: [on_const b] for the
     constant [b], [on_cell i] for unfolded cell [i]. *)
  let in_order ~on_const ~on_cell =
    for pos = 0 to n do
      if const_at.(first) = pos then on_const first;
      if const_at.(1 - first) = pos then on_const (1 - first);
      if pos < n && not folded.(pos) then on_cell pos
    done
  in
  (* Liveness on the folded view: a cell lives when an output or a
     sequential cell depends on it. [driver] maps a view net to its
     cell, [n + b] standing for the constant [b]; a later cell wins. *)
  let driver = Array.make (n_nets + 2) (-1) in
  in_order
    ~on_const:(fun b -> driver.(n_nets + b) <- n + b)
    ~on_cell:(fun i -> driver.(view cells.(i).Cell.out) <- i);
  let live = Array.make (n + 2) false in
  let stack = Array.make (n + 2) 0 and depth = ref 0 in
  let mark d =
    if d >= 0 && not live.(d) then begin
      live.(d) <- true;
      stack.(!depth) <- d;
      incr depth
    end
  in
  List.iter (fun (_, net) -> mark driver.(view net)) (Netlist.outputs nl);
  for i = 0 to n - 1 do
    if (not folded.(i)) && Cell.is_sequential cells.(i).Cell.kind then mark i
  done;
  while !depth > 0 do
    decr depth;
    let d = stack.(!depth) in
    if d < n then begin
      let ins = cells.(d).Cell.ins in
      for j = 0 to Array.length ins - 1 do
        mark driver.(view ins.(j))
      done
    end
  done;
  (* The one build: live cells only, no key ports, nets numbered in
     order of first use (a cell's output before its inputs). *)
  let out = Netlist.create (Netlist.name nl) in
  let ids = Array.make (n_nets + 2) (-1) in
  List.iter
    (fun (nm, net) -> ids.(view net) <- Netlist.add_input out nm)
    (Netlist.inputs nl);
  let map v =
    if ids.(v) = -1 then ids.(v) <- Netlist.new_net out;
    ids.(v)
  in
  in_order
    ~on_const:(fun b ->
      if live.(n + b) then
        Netlist.add_cell out
          (Cell.make (Cell.Const (b = 1)) [||] (map (n_nets + b))))
    ~on_cell:(fun i ->
      if live.(i) then begin
        let c = cells.(i) in
        let o = map (view c.Cell.out) in
        let ins = Array.map (fun net -> map (view net)) c.Cell.ins in
        Netlist.add_cell out (Cell.make ~origin:c.Cell.origin c.Cell.kind ins o)
      end);
  List.iter
    (fun (nm, net) -> Netlist.add_output out nm (map (view net)))
    (Netlist.outputs nl);
  out
