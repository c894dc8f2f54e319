module Netlist = Shell_netlist.Netlist
module Cnf = Shell_netlist.Cnf
module Solver = Shell_sat.Solver

type t = {
  solver : Solver.t;
  comb : Netlist.t;
  base : Cnf.t;  (* encoding template for fresh copies *)
  in1 : int array;  (* shared input vars (copy 1's) *)
  key1 : int array;
  key2 : int array;
  diff : int;  (* activation literal for the difference constraint *)
}

let add_copy solver base =
  (* fresh variables for one more circuit copy *)
  let off = Solver.num_vars solver in
  let shifted = Cnf.offset base off in
  Solver.ensure_vars solver shifted.Cnf.nvars;
  List.iter (Solver.add_clause solver) shifted.Cnf.clauses;
  shifted

let vars_of cnf nets = Array.map (fun n -> cnf.Cnf.var_of_net.(n)) nets

let create ?(cycle_blocks = []) ?(seed = 0) locked =
  let comb = Netlist.comb_view locked in
  let base = Cnf.encode comb in
  let solver = Solver.create ~seed () in
  let c1 = add_copy solver base in
  let c2 = add_copy solver base in
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
  { solver; comb; base; in1; key1; key2; diff }

let num_inputs t = Array.length t.in1
let num_keys t = Array.length t.key1

let find_dip ?max_conflicts t =
  match Solver.solve ~assumptions:[ t.diff ] ?max_conflicts t.solver with
  | Solver.Sat ->
      `Dip (Array.map (fun v -> Solver.value t.solver v) t.in1)
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Budget

let add_dip t input output =
  let bind cnf nets values =
    Array.iteri
      (fun i net ->
        let v = cnf.Cnf.var_of_net.(net) in
        Solver.add_clause t.solver [ (if values.(i) then v else -v) ])
      nets
  in
  let tie cnf key_vars =
    Array.iteri
      (fun i net ->
        let v = cnf.Cnf.var_of_net.(net) in
        List.iter (Solver.add_clause t.solver) (Cnf.equal_clauses v key_vars.(i)))
      (Netlist.key_nets t.comb)
  in
  let copy_a = add_copy t.solver t.base in
  bind copy_a (Netlist.input_nets t.comb) input;
  bind copy_a (Netlist.output_nets t.comb) output;
  tie copy_a t.key1;
  let copy_b = add_copy t.solver t.base in
  bind copy_b (Netlist.input_nets t.comb) input;
  bind copy_b (Netlist.output_nets t.comb) output;
  tie copy_b t.key2

let extract_key ?max_conflicts t =
  match Solver.solve ~assumptions:[ -t.diff ] ?max_conflicts t.solver with
  | Solver.Sat -> Some (Array.map (fun v -> Solver.value t.solver v) t.key1)
  | Solver.Unsat | Solver.Unknown -> None

let conflicts t = Solver.num_conflicts t.solver
let stats t = Solver.stats t.solver
