module Netlist = Shell_netlist.Netlist
module Cnf = Shell_netlist.Cnf
module Solver = Shell_sat.Solver

(* Every circuit copy is the same CNF template on its own block of
   variables: the copy at offset [off] maps net [n] to
   [var_of_net.(n) + off]. *)
type t = {
  solver : Solver.t;
  template : int array array;  (* the encoding's clauses, in order *)
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

(* Fresh variables for one more circuit copy; returns its offset. *)
let add_copy solver template copy_vars =
  let off = Solver.num_vars solver in
  Solver.ensure_vars solver (off + copy_vars);
  Array.iter (Solver.add_clause_shifted solver off) template;
  off

let create ?(cycle_blocks = []) ?(seed = 0) locked =
  let comb = Netlist.comb_view locked in
  let base = Cnf.encode comb in
  let template = Array.of_list (List.map Array.of_list base.Cnf.clauses) in
  let copy_vars = base.Cnf.nvars and var_of_net = base.Cnf.var_of_net in
  let vars_of off nets = Array.map (fun n -> var_of_net.(n) + off) nets in
  let solver = Solver.create ~seed () in
  let c1 = add_copy solver template copy_vars in
  let c2 = add_copy solver template copy_vars in
  let ins = Netlist.input_nets comb in
  let keys = Netlist.key_nets comb in
  let outs = Netlist.output_nets comb in
  let in1 = vars_of c1 ins and in2 = vars_of c2 ins in
  Array.iteri
    (fun i v1 ->
      List.iter (Solver.add_clause solver) (Cnf.equal_clauses v1 in2.(i)))
    in1;
  let key1 = vars_of c1 keys and key2 = vars_of c2 keys in
  let out1 = vars_of c1 outs and out2 = vars_of c2 outs in
  (* diff literal and per-output xor indicators *)
  let diff = Solver.new_var solver in
  let xors =
    Array.mapi
      (fun i v1 ->
        let x = Solver.new_var solver in
        List.iter (Solver.add_clause solver) (Cnf.xor_var ~fresh:x v1 out2.(i));
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

let num_inputs t = Array.length t.in1
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
  let bind off nets values =
    Array.iteri
      (fun i net ->
        let v = t.var_of_net.(net) + off in
        Solver.add_clause t.solver [ (if values.(i) then v else -v) ])
      nets
  in
  let tie off key_vars =
    Array.iteri
      (fun i net ->
        let v = t.var_of_net.(net) + off in
        List.iter (Solver.add_clause t.solver) (Cnf.equal_clauses v key_vars.(i)))
      t.keys
  in
  let copy_a = add_copy t.solver t.template t.copy_vars in
  bind copy_a t.ins input;
  bind copy_a t.outs output;
  tie copy_a t.key1;
  let copy_b = add_copy t.solver t.template t.copy_vars in
  bind copy_b t.ins input;
  bind copy_b t.outs output;
  tie copy_b t.key2

let extract_key ?max_conflicts ?deadline t =
  match
    Solver.solve ~assumptions:[ -t.diff ] ?max_conflicts ?deadline t.solver
  with
  | Solver.Sat -> Some (Array.map (fun v -> Solver.value t.solver v) t.key1)
  | Solver.Unsat | Solver.Unknown -> None

let conflicts t = Solver.num_conflicts t.solver
let stats t = Solver.stats t.solver
