module Netlist = Shell_netlist.Netlist
module Cnf = Shell_netlist.Cnf
module Solver = Shell_sat.Solver

(* Every circuit copy is the same CNF template on its own block of
   variables: the copy at offset [off] maps net [n] to
   [var_of_net.(n) + off]. *)
type t = {
  solver : Solver.t;
  template : int array;  (* the encoding's clauses, packed in order *)
  copy_vars : int;  (* variables per copy *)
  var_of_net : int array;  (* net -> variable in a copy at offset 0 *)
  ins : int array;  (* input nets *)
  outs : int array;  (* output nets *)
  keys : int array;  (* key nets *)
  in1 : int array;  (* shared input vars (copy 1's) *)
  key1 : int array;
  key2 : int array;
  diff : int;  (* activation literal for the difference constraint *)
}

(* Clauses packed the way [Solver.add_clauses] reads them: each one's
   length, then its literals. *)
let pack clauses =
  let words = List.fold_left (fun n c -> n + 1 + List.length c) 0 clauses in
  let a = Array.make words 0 and i = ref 0 in
  List.iter
    (fun c ->
      a.(!i) <- List.length c;
      incr i;
      List.iter
        (fun l ->
          a.(!i) <- l;
          incr i)
        c)
    clauses;
  a

(* Fresh variables for one more circuit copy; returns its offset. *)
let add_copy solver template copy_vars =
  let off = Solver.num_vars solver in
  Solver.ensure_vars solver (off + copy_vars);
  Solver.add_clauses ~shift:off solver template;
  off

let create ?(cycle_blocks = []) ?(seed = 0) locked =
  let comb = Netlist.comb_view locked in
  let base = Cnf.encode comb in
  let template = pack base.Cnf.clauses in
  let copy_vars = base.Cnf.nvars and var_of_net = base.Cnf.var_of_net in
  let vars_of off nets = Array.map (fun n -> var_of_net.(n) + off) nets in
  let ins = Netlist.input_nets comb in
  let keys = Netlist.key_nets comb in
  let outs = Netlist.output_nets comb in
  let solver = Solver.create ~seed () in
  (* two copies, the diff literal and one xor per output, and the first
     DIP's two copies, in one step; past that room the solver doubles,
     adding about as many copies again as the miter holds *)
  Solver.reserve solver ((4 * copy_vars) + 1 + Array.length outs);
  let c1 = add_copy solver template copy_vars in
  let c2 = add_copy solver template copy_vars in
  let in1 = vars_of c1 ins and in2 = vars_of c2 ins in
  Array.iteri
    (fun i v1 ->
      let v2 = in2.(i) in
      Solver.add_clause solver [ -v1; v2 ];
      Solver.add_clause solver [ v1; -v2 ])
    in1;
  let key1 = vars_of c1 keys and key2 = vars_of c2 keys in
  let out1 = vars_of c1 outs and out2 = vars_of c2 outs in
  (* diff literal and per-output xor indicators *)
  let diff = Solver.new_var solver in
  let xors =
    Array.mapi
      (fun i a ->
        let x = Solver.new_var solver and b = out2.(i) in
        Solver.add_clause solver [ -a; -b; -x ];
        Solver.add_clause solver [ a; b; -x ];
        Solver.add_clause solver [ -a; b; x ];
        Solver.add_clause solver [ a; -b; x ];
        x)
      out1
  in
  Solver.add_clause solver (-diff :: Array.to_list xors);
  (* cyclic-reduction pre-processing: block cycle-closing key patterns
     for both key vectors *)
  List.iter
    (fun (ids, vals) ->
      let block keyv =
        Solver.add_clause solver
          (Array.to_list
             (Array.mapi
                (fun j id ->
                  let v = keyv.(id) in
                  if vals.(j) then -v else v)
                ids))
      in
      block key1;
      block key2)
    cycle_blocks;
  {
    solver;
    template;
    copy_vars;
    var_of_net;
    ins;
    outs;
    keys;
    in1;
    key1;
    key2;
    diff;
  }

let num_keys t = Array.length t.key1

let find_dip ?max_conflicts ?deadline t =
  match
    Solver.solve ~assumptions:[ t.diff ] ?max_conflicts ?deadline t.solver
  with
  | Solver.Sat ->
      `Dip (Array.map (fun v -> Solver.value t.solver v) t.in1)
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Budget

let add_dip t input output =
  (* one copy, then its input and output binds (units) and its key ties
     (two binary clauses per key bit), packed for [Solver.add_clauses] *)
  let copy key_vars =
    let off = add_copy t.solver t.template t.copy_vars in
    let nio = Array.length t.ins + Array.length t.outs in
    let flat = Array.make ((2 * nio) + (6 * Array.length t.keys)) 0 in
    let bind i net value =
      let v = t.var_of_net.(net) + off in
      flat.(2 * i) <- 1;
      flat.((2 * i) + 1) <- (if value then v else -v)
    in
    Array.iteri (fun i net -> bind i net input.(i)) t.ins;
    Array.iteri
      (fun i net -> bind (Array.length t.ins + i) net output.(i))
      t.outs;
    Array.iteri
      (fun i net ->
        let v = t.var_of_net.(net) + off and k = key_vars.(i) in
        let p = (2 * nio) + (6 * i) in
        flat.(p) <- 2;
        flat.(p + 1) <- -v;
        flat.(p + 2) <- k;
        flat.(p + 3) <- 2;
        flat.(p + 4) <- v;
        flat.(p + 5) <- -k)
      t.keys;
    Solver.add_clauses t.solver flat
  in
  copy t.key1;
  copy t.key2

let extract_key ?max_conflicts ?deadline t =
  match
    Solver.solve ~assumptions:[ -t.diff ] ?max_conflicts ?deadline t.solver
  with
  | Solver.Sat -> Some (Array.map (fun v -> Solver.value t.solver v) t.key1)
  | Solver.Unsat | Solver.Unknown -> None

let conflicts t = Solver.num_conflicts t.solver
let stats t = Solver.stats t.solver
