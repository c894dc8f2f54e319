module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab
module Digraph = Shell_graph.Digraph

type value = Zero | One | Unknown

let known = function Zero -> Some false | One -> Some true | Unknown -> None
let of_bool b = if b then One else Zero

let neg = function Zero -> One | One -> Zero | Unknown -> Unknown

(* Kleene conjunction/disjunction: a known dominant operand decides the
   result even when the other side is unknown. *)
let and3 a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | _ -> Unknown

let or3 a b =
  match (a, b) with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | _ -> Unknown

let xor3 a b =
  match (known a, known b) with
  | Some x, Some y -> of_bool (x <> y)
  | _ -> Unknown

(* Fix the known inputs of a LUT, leaving a residual table over the
   unknown ones. Cofactoring from the highest variable down keeps the
   lower indices stable. *)
let residual_table tt vals =
  let t = ref tt in
  for i = Array.length vals - 1 downto 0 do
    match known vals.(i) with
    | Some b -> t := Truthtab.cofactor !t i b
    | None -> ()
  done;
  !t

let eval_cell ?(config_through = false) values (c : Cell.t) =
  let iv i = values.(c.Cell.ins.(i)) in
  match c.Cell.kind with
  | Cell.Const b -> of_bool b
  | Cell.Config_latch when config_through ->
      (* post-configuration semantics: the latch holds whatever the
         bitstream loaded, so a known input pins the stored state *)
      iv 0
  | Cell.Dff | Cell.Config_latch -> Unknown
  | Cell.Buf -> iv 0
  | Cell.Not -> neg (iv 0)
  | Cell.And -> and3 (iv 0) (iv 1)
  | Cell.Nand -> neg (and3 (iv 0) (iv 1))
  | Cell.Or -> or3 (iv 0) (iv 1)
  | Cell.Nor -> neg (or3 (iv 0) (iv 1))
  | Cell.Xor -> xor3 (iv 0) (iv 1)
  | Cell.Xnor -> neg (xor3 (iv 0) (iv 1))
  | Cell.Mux2 -> (
      match known (iv 0) with
      | Some false -> iv 1
      | Some true -> iv 2
      | None ->
          (* unknown select: both arms agreeing on a constant still
             pins the output *)
          if iv 1 = iv 2 then iv 1 else Unknown)
  | Cell.Mux4 -> (
      match (known (iv 0), known (iv 1)) with
      | Some s0, Some s1 ->
          let idx = (if s1 then 2 else 0) + if s0 then 1 else 0 in
          iv (2 + idx)
      | _ ->
          let a = iv 2 and b = iv 3 and c' = iv 4 and d = iv 5 in
          if a = b && b = c' && c' = d then a else Unknown)
  | Cell.Lut tt ->
      let vals = Array.init (Array.length c.Cell.ins) iv in
      let r = residual_table tt vals in
      (match Truthtab.is_const r with Some b -> of_bool b | None -> Unknown)

(* The netlist's topological order, or index order when its
   combinational part is cyclic. *)
let sweep_order nl =
  if N.has_comb_cycle nl then Array.init (N.num_cells nl) Fun.id
  else N.topo_order nl

let const_values ?(pins = []) ?(config_through = false) nl =
  let n = N.num_nets nl in
  let values = Array.make (max n 1) Unknown in
  List.iter
    (fun (net, b) -> if net >= 0 && net < n then values.(net) <- of_bool b)
    pins;
  let cells = N.cells nl in
  let eval_into ci =
    let c = cells.(ci) in
    match eval_cell ~config_through values c with
    | Unknown -> false
    | v ->
        if values.(c.Cell.out) = Unknown then begin
          values.(c.Cell.out) <- v;
          true
        end
        else false
  in
  let order = sweep_order nl in
  if not (config_through || N.has_comb_cycle nl) then
    (* one sweep suffices when the combinational part is acyclic:
       sequential cells come last in the order, and their outputs stay
       Unknown anyway *)
    Array.iter (fun ci -> ignore (eval_into ci)) order
  else begin
    (* cyclic, or facts flowing through Config_latch (which the topo
       order places after its readers): bounded monotone fixpoint —
       each net moves at most once, Unknown -> known, so this
       terminates; the bound caps the cost on adversarial orderings *)
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 64 do
      changed := false;
      incr rounds;
      Array.iter (fun ci -> if eval_into ci then changed := true) order
    done
  end;
  values

(* The walk keeps its stack in an int array: each net is pushed at most
   once (it is marked when pushed), so [n] entries suffice. Only the
   functional walk's LUT cofactors allocate. *)
let fanin_nets ?values nl targets =
  let n = N.num_nets nl in
  let cells = N.cells nl in
  let seen = Array.make (max n 1) false in
  let stack = Array.make (max n 1) 0 and top = ref 0 in
  let push net =
    if net >= 0 && net < n && not seen.(net) then begin
      seen.(net) <- true;
      stack.(!top) <- net;
      incr top
    end
  in
  List.iter push targets;
  while !top > 0 do
    decr top;
    let net = stack.(!top) in
    let ci = N.driver_index nl net in
    if ci >= 0 then begin
      let c = cells.(ci) in
      let ins = c.Cell.ins in
      match (values, c.Cell.kind) with
      | None, _ -> Array.iter push ins
      | Some v, _ when v.(net) <> Unknown ->
          (* a proven-constant net transmits no influence: mark it but
             do not walk into its sources *)
          ()
      | Some v, Cell.Mux2 -> (
          match known v.(ins.(0)) with
          | Some s ->
              push ins.(0);
              push ins.(if s then 2 else 1)
          | None -> Array.iter push ins)
      | Some v, Cell.Mux4 -> (
          match (known v.(ins.(0)), known v.(ins.(1))) with
          | Some s0, Some s1 ->
              push ins.(0);
              push ins.(1);
              let idx = (if s1 then 2 else 0) + if s0 then 1 else 0 in
              push ins.(2 + idx)
          | _ -> Array.iter push ins)
      | Some v, Cell.Lut tt ->
          let vals = Array.map (fun i -> v.(i)) ins in
          let r = residual_table tt vals in
          let j = ref 0 in
          Array.iteri
            (fun i _ ->
              match known vals.(i) with
              | Some _ -> ()
              | None ->
                  if Truthtab.depends_on r !j then push ins.(i);
                  incr j)
            ins
      | Some _, _ -> Array.iter push ins
    end
  done;
  seen

type cones = { values : value array; reach : bool array; live : bool array }

let output_cones nl =
  let values = const_values nl in
  let outs = Array.to_list (N.output_nets nl) in
  { values; reach = fanin_nets nl outs; live = fanin_nets ~values nl outs }

type key_fate = Dead | Blocked | Live

let key_fates ?cones nl =
  let c = match cones with Some c -> c | None -> output_cones nl in
  List.map
    (fun (nm, net) ->
      let fate =
        if net < 0 || net >= Array.length c.reach || not c.reach.(net) then
          Dead
        else if not c.live.(net) then Blocked
        else Live
      in
      (nm, net, fate))
    (N.keys nl)

type cycles = { comb : int list list; mux : int list list }

(* no input position before [p], from [k] on, reads [ins.(p)]'s net *)
let rec first_read ins p k =
  k = p || (ins.(k) <> ins.(p) && first_read ins p (k + 1))

let is_mux (c : Cell.t) =
  match c.Cell.kind with Cell.Mux2 | Cell.Mux4 -> true | _ -> false

(* Non-trivial SCCs (size > 1, or a self-loop) of a CSR graph, each
   sorted ascending, in ascending order of their smallest member; the
   trivial ones never become lists. *)
let nontrivial_sccs ~off ~adj =
  let self_loop v =
    let rec go k = k < off.(v + 1) && (adj.(k) = v || go (k + 1)) in
    go off.(v)
  in
  let found = ref [] in
  Digraph.iter_csr_sccs ~off ~adj (fun stack lo hi ->
      if hi - lo > 1 then
        let members = Array.to_list (Array.sub stack lo (hi - lo)) in
        found := List.sort Int.compare members :: !found
      else if self_loop stack.(lo) then found := [ stack.(lo) ] :: !found);
  List.sort (fun a b -> Int.compare (List.hd a) (List.hd b)) !found

(* CSR rows from an edge enumeration: count the successors, then place
   them in enumeration order *)
let csr n each_edge =
  let off = Array.make (n + 1) 0 in
  each_edge (fun j _ -> off.(j + 1) <- off.(j + 1) + 1);
  for j = 1 to n do
    off.(j) <- off.(j) + off.(j - 1)
  done;
  let adj = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  each_edge (fun j i ->
      adj.(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1);
  (off, adj)

let cycles nl =
  if not (N.has_comb_cycle nl) then { comb = []; mux = [] }
  else begin
    let ncells = N.num_cells nl in
    let comb i = not (Cell.is_sequential (N.cell nl i).Cell.kind) in
    (* edge j -> i when combinational cell i reads combinational cell
       j's output (the last driver of a net, as in [N.topo_order]); an
       input net repeated at two positions of i is one edge *)
    let off, adj =
      csr ncells (fun f ->
          for i = 0 to ncells - 1 do
            let ins = (N.cell nl i).Cell.ins in
            if comb i then
              for p = 0 to Array.length ins - 1 do
                let j = N.driver_index nl ins.(p) in
                if j >= 0 && comb j && first_read ins p 0 then f j i
              done
          done)
    in
    let comb_sccs = nontrivial_sccs ~off ~adj in
    (* a MUX cycle is a combinational cycle, so the MUX-only subgraph
       only needs the MUX cells on one, numbered densely in cell order
       ([node.(i)], -1 off it): sorting node ids sorts cell ids *)
    let on_cycle =
      List.concat_map (List.filter (fun i -> is_mux (N.cell nl i))) comb_sccs
      |> List.sort Int.compare |> Array.of_list
    in
    let mux_sccs =
      if on_cycle = [||] then []
      else begin
        let node = Array.make ncells (-1) in
        Array.iteri (fun u i -> node.(i) <- u) on_cycle;
        let off, adj =
          csr (Array.length on_cycle) (fun f ->
              Array.iteri
                (fun u j ->
                  for e = off.(j) to off.(j + 1) - 1 do
                    let v = node.(adj.(e)) in
                    if v >= 0 then f u v
                  done)
                on_cycle)
        in
        nontrivial_sccs ~off ~adj |> List.map (List.map (fun u -> on_cycle.(u)))
      end
    in
    { comb = comb_sccs; mux = mux_sccs }
  end
