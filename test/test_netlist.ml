(* Tests for shell_netlist: construction, validation, topo order,
   simulation, cost, Verilog round-trip, CNF encoding, rewriting,
   key specialization, splicing, equivalence. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Sim = Shell_fuzz.Ref_sim
module Cost = Shell_netlist.Cost
module Verilog = Shell_netlist.Verilog
module Cnf = Shell_netlist.Cnf
module Rewrite = Shell_netlist.Rewrite
module Specialize = Shell_netlist.Specialize
module Splice = Shell_netlist.Splice
module Equiv = Shell_netlist.Equiv
module Rng = Shell_util.Rng
module Truthtab = Shell_util.Truthtab

(* small fixture: y = (a xor b) and c, plus a counter bit *)
let fixture () =
  let nl = N.create "fix" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let c = N.add_input nl "c" in
  let x = N.xor_ nl a b in
  let y = N.and_ nl x c in
  N.add_output nl "y" y;
  let q = N.new_net nl in
  let d = N.not_ nl q in
  N.add_cell nl (Cell.make Cell.Dff [| d |] q);
  N.add_output nl "q" q;
  nl

(* layered random combinational netlist *)
let random_nl seed n_in n_gates =
  let rng = Rng.create seed in
  let nl = N.create "rand" in
  let pool = ref (Array.init n_in (fun i -> N.add_input nl (Printf.sprintf "i%d" i))) in
  for _ = 1 to n_gates do
    let a = Rng.choice rng !pool and b = Rng.choice rng !pool in
    let kinds = [| Cell.And; Cell.Or; Cell.Xor; Cell.Nand; Cell.Nor; Cell.Xnor |] in
    let out = N.gate nl kinds.(Rng.int rng 6) [| a; b |] in
    pool := Array.append !pool [| out |]
  done;
  for i = 0 to min 5 (Array.length !pool - 1) do
    N.add_output nl (Printf.sprintf "o%d" i) (!pool).(Array.length !pool - 1 - i)
  done;
  nl

let test_validate_ok () =
  match N.validate (fixture ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Shell_util.Diag.to_string e)

let test_validate_double_driver () =
  let nl = N.create "bad" in
  let a = N.add_input nl "a" in
  let x = N.not_ nl a in
  N.add_cell nl (Cell.make Cell.Buf [| a |] x);
  Alcotest.(check bool) "rejected" true (Result.is_error (N.validate nl))

let test_validate_floating_read () =
  let nl = N.create "bad2" in
  let a = N.add_input nl "a" in
  let dangling = N.new_net nl in
  let y = N.and_ nl a dangling in
  N.add_output nl "y" y;
  Alcotest.(check bool) "rejected" true (Result.is_error (N.validate nl))

let payload_of nl =
  match N.validate nl with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error d -> d.Shell_util.Diag.payload

let test_validate_bad_net_id () =
  (* the builder refuses an out-of-range port net with the same typed
     payload the validator uses for internally-corrupted netlists *)
  let nl = N.create "bad3" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.not_ nl a);
  match N.add_output nl "oops" 999 with
  | () -> Alcotest.fail "expected Bad_net_id failure"
  | exception Shell_util.Diag.Error d -> (
      match d.Shell_util.Diag.payload with
      | N.Invalid (N.Bad_net_id { port = "oops"; net = 999 }) -> ()
      | _ -> Alcotest.fail "expected Bad_net_id{oops,999} payload")

let test_validate_dangling_output () =
  let nl = N.create "bad4" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.not_ nl a);
  N.add_output nl "z" (N.new_net nl);
  match payload_of nl with
  | N.Invalid (N.Undriven_output { port = "z"; _ }) -> ()
  | _ -> Alcotest.fail "expected Undriven_output{z}"

let test_validate_duplicate_port () =
  let nl = N.create "bad5" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.not_ nl a);
  N.add_output nl "y" (N.buf nl a);
  match payload_of nl with
  | N.Invalid (N.Duplicate_port { port = "y" }) -> ()
  | _ -> Alcotest.fail "expected Duplicate_port{y}"

let test_validate_all_collects () =
  (* one netlist with four distinct defects: validate_all reports all
     of them in its documented order, validate returns the first *)
  let nl = N.create "multi" in
  let a = N.add_input nl "a" in
  let _a2 = N.add_input nl "a" in
  let x = N.not_ nl a in
  N.add_cell nl (Cell.make Cell.Buf [| a |] x);
  let dangling = N.new_net nl in
  N.add_output nl "y" (N.and_ nl x dangling);
  N.add_output nl "z" (N.new_net nl);
  let ds = N.validate_all nl in
  let payloads =
    List.map
      (fun d ->
        match d.Shell_util.Diag.payload with
        | N.Invalid iv -> iv
        | _ -> Alcotest.fail "expected Invalid payload")
      ds
  in
  (match payloads with
  | [
   N.Duplicate_port { port = "a" };
   N.Multiple_drivers { net; _ };
   N.Undriven_output { port = "z"; _ };
   N.Undriven_read { net = read };
  ] ->
      Alcotest.(check int) "double-driven net" x net;
      Alcotest.(check int) "floating read" dangling read
  | _ ->
      Alcotest.failf "unexpected violation list (%d entries)"
        (List.length ds));
  match (N.validate nl, ds) with
  | Error first, d :: _ ->
      Alcotest.(check string) "validate returns the first violation"
        (Shell_util.Diag.to_string d)
        (Shell_util.Diag.to_string first)
  | Ok (), _ | _, [] -> Alcotest.fail "validate should fail"

let test_driver_fanout () =
  let nl = fixture () in
  let x_cell = 0 in
  let x_net = (N.cell nl x_cell).Cell.out in
  Alcotest.(check (option int)) "driver" (Some x_cell) (N.driver nl x_net);
  Alcotest.(check (list int)) "fanout of x" [ 1 ] (N.fanout nl x_net)

let test_topo_order_valid () =
  let nl = random_nl 17 8 200 in
  let order = N.topo_order nl in
  let pos = Array.make (N.num_cells nl) 0 in
  Array.iteri (fun p ci -> pos.(ci) <- p) order;
  Array.iteri
    (fun ci c ->
      if not (Cell.is_sequential c.Cell.kind) then
        Array.iter
          (fun net ->
            match N.driver nl net with
            | Some cj when not (Cell.is_sequential (N.cell nl cj).Cell.kind) ->
                Alcotest.(check bool) "driver before reader" true
                  (pos.(cj) < pos.(ci))
            | Some _ | None -> ())
          c.Cell.ins)
    (N.cells nl)

let test_cycle_detection () =
  let nl = N.create "cyc" in
  let a = N.add_input nl "a" in
  let loop_net = N.new_net nl in
  let x = N.and_ nl a loop_net in
  N.add_cell nl (Cell.make Cell.Buf [| x |] loop_net);
  N.add_output nl "y" x;
  Alcotest.(check bool) "cycle found" true (N.has_comb_cycle nl);
  Alcotest.(check bool) "fixture acyclic" false (N.has_comb_cycle (fixture ()))

(* ---- the driver, fanout and order memos ---- *)

(* A net added after a driver/fanout query must be answerable: a table
   sized before it would raise on its id. *)
let test_memo_new_net_after_query () =
  let nl = N.create "grow" in
  let a = N.add_input nl "a" in
  let y = N.not_ nl a in
  Alcotest.(check (option int)) "driver y" (Some 0) (N.driver nl y);
  Alcotest.(check (list int)) "fanout a" [ 0 ] (N.fanout nl a);
  let b = N.add_input nl "b" in
  Alcotest.(check (option int)) "driver b" None (N.driver nl b);
  Alcotest.(check (list int)) "fanout b" [] (N.fanout nl b);
  let k = N.add_key nl "k" in
  Alcotest.(check (option int)) "driver k" None (N.driver nl k)

let test_memo_order_shared () =
  let nl = random_nl 5 6 80 in
  let o = N.topo_order nl in
  Alcotest.(check bool) "same array" true (o == N.topo_order nl)

let test_memo_mutations_clear () =
  let nl = fixture () in
  let o = N.topo_order nl in
  let x = (N.cell nl 0).Cell.out in
  ignore (N.driver nl x);
  ignore (N.fanout nl x);
  (* new_net: the memos cover the new id *)
  let z = N.new_net nl in
  Alcotest.(check (option int)) "driver of a fresh net" None (N.driver nl z);
  Alcotest.(check (list int)) "fanout of a fresh net" [] (N.fanout nl z);
  let o' = N.topo_order nl in
  Alcotest.(check bool) "new_net clears the order" false (o == o');
  (* add_cell: a new reader of x, a new driver, a longer order *)
  N.add_cell nl (Cell.make Cell.Buf [| x |] z);
  let ci = N.num_cells nl - 1 in
  Alcotest.(check (option int)) "driver of the new net" (Some ci)
    (N.driver nl z);
  Alcotest.(check (list int)) "fanout grew" [ 1; ci ] (N.fanout nl x);
  let o'' = N.topo_order nl in
  Alcotest.(check bool) "add_cell clears the order" false (o' == o'');
  Alcotest.(check int) "order covers the new cell" (N.num_cells nl)
    (Array.length o'')

let test_memo_fresh_on_copy () =
  let nl = fixture () in
  let o = N.topo_order nl in
  let c = N.copy nl in
  let v = N.comb_view nl in
  let co = N.topo_order c and vo = N.topo_order v in
  Alcotest.(check bool) "copy sorts afresh" false (o == co);
  Alcotest.(check bool) "comb_view sorts afresh" false (o == vo);
  (* a mutation of either side leaves the others' memos alone *)
  let x = (N.cell c 0).Cell.out in
  N.add_cell c (Cell.make Cell.Buf [| x |] (N.new_net c));
  Alcotest.(check bool) "original order kept" true (o == N.topo_order nl);
  Alcotest.(check int) "copy order grew" (N.num_cells nl + 1)
    (Array.length (N.topo_order c));
  N.add_cell nl (Cell.make Cell.Buf [| x |] (N.new_net nl));
  Alcotest.(check bool) "comb_view order kept" true (vo == N.topo_order v)

let test_memo_cyclic () =
  let nl = N.create "cyc" in
  let a = N.add_input nl "a" in
  let loop_net = N.new_net nl in
  let x = N.and_ nl a loop_net in
  N.add_cell nl (Cell.make Cell.Buf [| x |] loop_net);
  for _ = 1 to 200 do
    ignore (N.xor_ nl x a)
  done;
  let alloc f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  Alcotest.(check bool) "no answer before the first call" false
    (N.order_memoized nl);
  Alcotest.(check bool) "cyclic" true (N.has_comb_cycle nl);
  Alcotest.(check bool) "the first call memoizes the answer" true
    (N.order_memoized nl);
  let again = alloc (fun () -> ignore (N.has_comb_cycle nl)) in
  let nothing = alloc (fun () -> ()) in
  Alcotest.(check (float 0.)) "the second answers from the memo" nothing
    again;
  let copy = N.copy nl in
  Alcotest.(check bool) "a fresh copy has no answer" false
    (N.order_memoized copy);
  Alcotest.(check bool) "the copy sorts again" true (N.has_comb_cycle copy);
  Alcotest.(check bool) "and memoizes its own answer" true
    (N.order_memoized copy);
  Alcotest.check_raises "topo_order still raises"
    (Failure "Netlist.topo_order: combinational cycle") (fun () ->
      ignore (N.topo_order nl))

(* [cells] hands out the netlist's own array: a second call allocates
   nothing and returns it again, and no later mutation, copy or map
   changes an array already handed out. *)
let test_cells_shared () =
  let nl = fixture () in
  let alloc f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let first = N.cells nl in
  let again = alloc (fun () -> ignore (N.cells nl)) in
  let nothing = alloc (fun () -> ()) in
  Alcotest.(check (float 0.)) "a second call allocates nothing" nothing again;
  Alcotest.(check bool) "and returns the same array" true (first == N.cells nl);
  (* [kept a] checks that [a] still holds exactly what it held *)
  let kept what a =
    let snapshot = Array.copy a in
    fun () ->
      Alcotest.(check int) (what ^ ": length kept") (Array.length snapshot)
        (Array.length a);
      Array.iteri
        (fun i c ->
          Alcotest.(check bool) (Printf.sprintf "%s: cell %d kept" what i) true
            (c == a.(i)))
        snapshot
  in
  let check_first = kept "add_cell" first in
  let x = (N.cell nl 0).Cell.out in
  N.add_cell nl (Cell.make ~origin:"new" Cell.Buf [| x |] (N.new_net nl));
  check_first ();
  let fresh = N.cells nl in
  Alcotest.(check int) "add_cell: a fresh call sees the cell"
    (Array.length first + 1) (Array.length fresh);
  Alcotest.(check string) "add_cell: the new cell last" "new"
    fresh.(Array.length fresh - 1).Cell.origin;
  let check_fresh = kept "set_origin" fresh in
  N.set_origin nl 0 "retagged";
  check_fresh ();
  Alcotest.(check string) "set_origin: a fresh call sees the tag" "retagged"
    (N.cells nl).(0).Cell.origin;
  let before_copy = N.cells nl in
  let check_before_copy = kept "copy" before_copy in
  let c = N.copy nl in
  N.set_origin c 1 "copy";
  N.add_cell c (Cell.make Cell.Not [| x |] (N.new_net c));
  check_before_copy ();
  Alcotest.(check bool) "copy: the original's array stays its own" true
    (before_copy == N.cells nl);
  Alcotest.(check int) "copy: a fresh call on the copy sees its cell"
    (Array.length before_copy + 1) (Array.length (N.cells c));
  Alcotest.(check string) "copy: and its tag" "copy" (N.cells c).(1).Cell.origin;
  let m = N.map_cells nl (fun _ c -> { c with Cell.origin = "mapped" }) in
  check_before_copy ();
  Alcotest.(check bool) "map_cells: the original's array stays its own" true
    (before_copy == N.cells nl);
  Array.iter
    (fun c -> Alcotest.(check string) "map_cells: mapped" "mapped" c.Cell.origin)
    (N.cells m)

(* A raw [Cell.t] record can carry any inputs; [add_cell] and
   [map_cells] refuse the counts [Cell.make] refuses, which is what
   bounds a cell at six inputs. *)
let test_arity_refused () =
  let nl = fixture () in
  let a = (N.cell nl 0).Cell.ins.(0) and cells = N.num_cells nl in
  let raw kind ins = { Cell.kind; ins; out = N.new_net nl; origin = "" } in
  Alcotest.check_raises "add_cell: one input to an and"
    (Invalid_argument "Netlist.add_cell: 1 inputs where 2 expected") (fun () ->
      N.add_cell nl (raw Cell.And [| a |]));
  Alcotest.check_raises "add_cell: seven inputs to a mux4"
    (Invalid_argument "Netlist.add_cell: 7 inputs where 6 expected") (fun () ->
      N.add_cell nl (raw Cell.Mux4 (Array.make 7 a)));
  let lut2 = Truthtab.create ~arity:2 ~bits:6L in
  Alcotest.check_raises "add_cell: three inputs to a 2-LUT"
    (Invalid_argument "Netlist.add_cell: 3 inputs where 2 expected") (fun () ->
      N.add_cell nl (raw (Cell.Lut lut2) [| a; a; a |]));
  Alcotest.(check int) "nothing was added" cells (N.num_cells nl);
  Alcotest.check_raises "map_cells: an and with no inputs"
    (Invalid_argument "Netlist.map_cells: 0 inputs where 2 expected") (fun () ->
      ignore
        (N.map_cells nl (fun _ c ->
             if c.Cell.kind = Cell.And then { c with Cell.ins = [||] } else c)))

(* One netlist nobody has queried, read by four pool tasks at once:
   every task sees the answers a sequential reader of a second build
   gets, the cells the first [cells] call trims included. *)
let test_memo_shared_across_domains () =
  let nl = random_nl 23 16 3000 in
  let answers nl =
    let n = N.num_nets nl in
    ( Array.init n (N.driver nl),
      Array.init n (N.fanout nl),
      Array.copy (N.topo_order nl),
      Array.map (fun c -> c.Cell.out) (N.cells nl) )
  in
  let want = answers (random_nl 23 16 3000) in
  let got =
    Shell_util.Pool.map ~jobs:4 (fun _ -> answers nl) (Array.make 4 ())
  in
  Array.iteri
    (fun i (d, f, o, c) ->
      let wd, wf, wo, wc = want in
      let name what = Printf.sprintf "task %d %s" i what in
      Alcotest.(check (array (option int))) (name "driver") wd d;
      Alcotest.(check (array (list int))) (name "fanout") wf f;
      Alcotest.(check (array int)) (name "order") wo o;
      Alcotest.(check (array int)) (name "cells") wc c)
    got

let test_sim_comb () =
  let nl = fixture () in
  let sim = Sim.create nl in
  let out = Sim.eval_comb sim [| true; false; true |] in
  Alcotest.(check bool) "y = (1^0)&1" true out.(0);
  let out = Sim.eval_comb sim [| true; true; true |] in
  Alcotest.(check bool) "y = (1^1)&1" false out.(0)

let test_sim_sequential () =
  let nl = fixture () in
  let sim = Sim.create nl in
  (* q starts 0, toggles every cycle (d = not q) *)
  let o1 = Sim.step sim [| false; false; false |] in
  Alcotest.(check bool) "q cycle0" false o1.(1);
  let o2 = Sim.step sim [| false; false; false |] in
  Alcotest.(check bool) "q cycle1" true o2.(1);
  let o3 = Sim.step sim [| false; false; false |] in
  Alcotest.(check bool) "q cycle2" false o3.(1);
  Sim.reset sim;
  let o4 = Sim.step sim [| false; false; false |] in
  Alcotest.(check bool) "q after reset" false o4.(1)

let test_comb_view_ports () =
  let nl = fixture () in
  let cv = N.comb_view nl in
  Alcotest.(check int) "one extra input" 4 (List.length (N.inputs cv));
  Alcotest.(check int) "one extra output" 3 (List.length (N.outputs cv));
  Alcotest.(check bool) "no flops left" false
    (N.count_kind cv (function Cell.Dff -> true | _ -> false) > 0)

let test_cost_monotone () =
  let small = random_nl 3 6 50 and large = random_nl 3 6 500 in
  Alcotest.(check bool) "area grows" true (Cost.area large > Cost.area small);
  Alcotest.(check bool) "power grows" true (Cost.power large > Cost.power small);
  Alcotest.(check bool) "delay positive" true (Cost.delay large > 0.0)

let test_cost_normalize () =
  let nl = fixture () in
  let r = Cost.report nl in
  let n = Cost.normalize ~base:r r in
  Alcotest.(check (float 1e-9)) "area ratio 1" 1.0 n.Cost.area;
  Alcotest.(check (float 1e-9)) "delay ratio 1" 1.0 n.Cost.delay

let equivalent a b =
  match Equiv.check a b with Equiv.Equivalent -> true | _ -> false

let test_verilog_roundtrip_fixture () =
  let nl = fixture () in
  let nl2 = Verilog.parse (Verilog.to_string nl) in
  Alcotest.(check bool) "equivalent" true (equivalent nl nl2);
  Alcotest.(check int) "same cell count" (N.num_cells nl) (N.num_cells nl2)

let test_verilog_roundtrip_random =
  QCheck.Test.make ~name:"verilog roundtrip random netlists" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let nl = random_nl seed 6 60 in
      let nl2 = Verilog.parse (Verilog.to_string nl) in
      equivalent nl nl2)

let test_verilog_lut_roundtrip () =
  let nl = N.create "l" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let k = N.add_key nl "k0" in
  let tt = Truthtab.create ~arity:3 ~bits:0xCAL in
  let y = N.lut nl tt [| a; b; k |] in
  N.add_output nl "y" y;
  let nl2 = Verilog.parse (Verilog.to_string nl) in
  Alcotest.(check int) "key preserved" 1 (List.length (N.keys nl2));
  Alcotest.(check bool) "equivalent" true
    (match Equiv.check ~keys_a:[| true |] ~keys_b:[| true |] nl nl2 with
    | Equiv.Equivalent -> true
    | _ -> false)

let test_verilog_parse_errors () =
  List.iter
    (fun src ->
      match Verilog.parse src with
      | exception Verilog.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted malformed: " ^ src))
    [
      "module m (a); input a; bogus g0 (a, a); endmodule";
      "module m (y); output y; endmodule";  (* undriven output *)
      "module m (a; input a; endmodule";
      "module m (a, y); input a; output y; and2 g0 (a, y); endmodule";
    ]

(* CNF: satisfying assignments of the encoding match simulation *)
let test_cnf_agrees_with_sim =
  QCheck.Test.make ~name:"cnf encoding agrees with simulation" ~count:30
    QCheck.(pair (int_bound 1000) (int_bound 255))
    (fun (seed, input_bits) ->
      let nl = random_nl seed 6 40 in
      let cnf = Cnf.encode nl in
      let sim = Sim.create nl in
      let ins = Array.init 6 (fun i -> input_bits land (1 lsl i) <> 0) in
      let outs = Sim.eval_comb sim ins in
      (* check: unit-fixing the inputs forces the simulated outputs *)
      let solver = Shell_sat.Solver.create () in
      Shell_sat.Solver.ensure_vars solver cnf.Cnf.nvars;
      List.iter (Shell_sat.Solver.add_clause solver) cnf.Cnf.clauses;
      Array.iteri
        (fun i net ->
          Shell_sat.Solver.add_clause solver [ Cnf.lit cnf net ins.(i) ])
        (N.input_nets nl);
      (match Shell_sat.Solver.solve solver with
      | Shell_sat.Solver.Sat -> ()
      | _ -> failwith "must be satisfiable");
      Array.for_all2
        (fun net expect ->
          Shell_sat.Solver.value solver (Cnf.var_of net cnf) = expect)
        (N.output_nets nl) outs)

(* Every buffer goes, including one that only aliases an output to an
   input port: the output then names the port's own net. *)
let test_rewrite_sweep_buffers () =
  let nl = N.create "bufs" in
  let a = N.add_input nl "a" in
  let b1 = N.buf nl a in
  let b2 = N.buf nl b1 in
  let y = N.not_ nl b2 in
  N.add_output nl "y" y;
  N.add_output nl "alias" (N.buf nl a);
  let swept = Rewrite.sweep_buffers nl in
  Alcotest.(check int) "buffers gone" 1 (N.num_cells swept);
  Alcotest.(check int) "alias reads port a"
    (List.assoc "a" (N.inputs swept))
    (List.assoc "alias" (N.outputs swept));
  Alcotest.(check bool) "equivalent" true (equivalent nl swept)

let test_rewrite_dead_cells () =
  let nl = N.create "dead" in
  let a = N.add_input nl "a" in
  let y = N.not_ nl a in
  let _dead = N.and_ nl a y in
  N.add_output nl "y" y;
  let cleaned = Rewrite.dead_cell_elim nl in
  Alcotest.(check int) "dead gate dropped" 1 (N.num_cells cleaned);
  Alcotest.(check bool) "equivalent" true (equivalent nl cleaned)

let test_specialize_keys () =
  (* y = k ? a : b — binding k must leave a pure wire *)
  let nl = N.create "spec" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let k = N.add_key nl "k" in
  let y = N.mux2 nl ~sel:k ~a ~b in
  N.add_output nl "y" y;
  let t = Specialize.bind_keys nl [| true |] in
  Alcotest.(check int) "no keys left" 0 (List.length (N.keys t));
  let sim = Sim.create t in
  Alcotest.(check bool) "picks b" true (Sim.eval_comb sim [| false; true |]).(0);
  let f = Specialize.bind_keys nl [| false |] in
  let sim = Sim.create f in
  Alcotest.(check bool) "picks a" true (Sim.eval_comb sim [| true; false |]).(0)

let test_specialize_breaks_cycles () =
  (* structural cycle through an unselected mux arm *)
  let nl = N.create "cyc" in
  let a = N.add_input nl "a" in
  let k = N.add_key nl "k" in
  let loop_net = N.new_net nl in
  let m = N.mux2 nl ~sel:k ~a ~b:loop_net in
  N.add_cell nl (Cell.make Cell.Not [| m |] loop_net);
  N.add_output nl "y" m;
  Alcotest.(check bool) "cyclic before" true (N.has_comb_cycle nl);
  let bound = Specialize.bind_keys nl [| false |] in
  Alcotest.(check bool) "acyclic after" false (N.has_comb_cycle bound);
  let sim = Sim.create bound in
  Alcotest.(check bool) "wires a" true (Sim.eval_comb sim [| true |]).(0)

(* The two-step key binding [Specialize.bind_keys] replaced, kept as its
   oracle: the same fold rules and sweeps, then a rebuild without the
   folded cells and key ports, then [Rewrite.dead_cell_elim]. The one
   build must give the same netlist, fingerprint for fingerprint. *)
module Two_step = struct
  type fact = Unknown | Const of bool | Alias of int

  let bind_keys nl key =
    let key_nets = N.key_nets nl in
    let n_nets = max (N.num_nets nl) 1 in
    let facts = Array.make n_nets Unknown in
    Array.iteri (fun i net -> facts.(net) <- Const key.(i)) key_nets;
    let rec resolve net =
      match facts.(net) with
      | Alias net' ->
          let root = resolve net' in
          if root <> net' then facts.(net) <- Alias root;
          root
      | Unknown | Const _ -> net
    in
    let value net =
      match facts.(resolve net) with
      | Const b -> Some b
      | Unknown | Alias _ -> None
    in
    let cells = N.cells nl in
    let folded = Array.make (Array.length cells) false in
    let try_fold i (c : Cell.t) =
      if folded.(i) || Cell.is_sequential c.Cell.kind then false
      else begin
        let ins = c.Cell.ins in
        let learn fact =
          folded.(i) <- true;
          (match fact with
          | Alias net -> facts.(c.Cell.out) <- Alias (resolve net)
          | other -> facts.(c.Cell.out) <- other);
          true
        in
        let vals = Array.init (Array.length ins) (fun j -> value ins.(j)) in
        if Array.for_all Option.is_some vals && Array.length ins > 0 then
          learn (Const (Cell.eval c.Cell.kind (Array.map Option.get vals)))
        else
          match (c.Cell.kind, vals) with
          | Cell.Const b, _ -> learn (Const b)
          | Cell.Buf, _ -> learn (Alias ins.(0))
          | Cell.And, [| Some false; _ |] | Cell.And, [| _; Some false |] ->
              learn (Const false)
          | Cell.And, [| Some true; _ |] -> learn (Alias ins.(1))
          | Cell.And, [| _; Some true |] -> learn (Alias ins.(0))
          | Cell.Or, [| Some true; _ |] | Cell.Or, [| _; Some true |] ->
              learn (Const true)
          | Cell.Or, [| Some false; _ |] -> learn (Alias ins.(1))
          | Cell.Or, [| _; Some false |] -> learn (Alias ins.(0))
          | Cell.Nand, [| Some false; _ |] | Cell.Nand, [| _; Some false |] ->
              learn (Const true)
          | Cell.Nor, [| Some true; _ |] | Cell.Nor, [| _; Some true |] ->
              learn (Const false)
          | Cell.Xor, [| Some false; _ |] -> learn (Alias ins.(1))
          | Cell.Xor, [| _; Some false |] -> learn (Alias ins.(0))
          | Cell.Xnor, [| Some true; _ |] -> learn (Alias ins.(1))
          | Cell.Xnor, [| _; Some true |] -> learn (Alias ins.(0))
          | Cell.Mux2, [| Some s; _; _ |] ->
              learn (Alias ins.(if s then 2 else 1))
          | Cell.Mux2, _ when resolve ins.(1) = resolve ins.(2) ->
              learn (Alias ins.(1))
          | Cell.Mux4, [| Some s0; Some s1; _; _; _; _ |] ->
              let idx = 2 + ((if s0 then 1 else 0) lor if s1 then 2 else 0) in
              learn (Alias ins.(idx))
          | _ -> false
      end
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri (fun i c -> if try_fold i c then changed := true) cells
    done;
    let out = N.create (N.name nl) in
    let mapping = Array.make n_nets (-1) in
    let const_net = [| -1; -1 |] in
    List.iter (fun (nm, net) -> mapping.(net) <- N.add_input out nm) (N.inputs nl);
    let rec map_net net =
      let net = resolve net in
      match facts.(net) with
      | Const b ->
          let i = Bool.to_int b in
          if const_net.(i) = -1 then const_net.(i) <- N.const out b;
          const_net.(i)
      | Alias _ -> map_net net
      | Unknown ->
          if mapping.(net) = -1 then mapping.(net) <- N.new_net out;
          mapping.(net)
    in
    Array.iteri
      (fun i c ->
        if not folded.(i) then
          N.add_cell out
            (Cell.make ~origin:c.Cell.origin c.Cell.kind
               (Array.map map_net c.Cell.ins)
               (map_net c.Cell.out)))
      cells;
    List.iter (fun (nm, net) -> N.add_output out nm (map_net net)) (N.outputs nl);
    Rewrite.dead_cell_elim out
end

let same_binding nl key =
  N.fingerprint (Specialize.bind_keys nl key)
  = N.fingerprint (Two_step.bind_keys nl key)

(* `shell lock` of every catalog design under every style at two flow
   seeds, each bound three ways: the bitstream, its complement (which
   leaves decoy routing and cycles in place), and the emitted fabric
   alone under the bitstream. *)
let test_bind_keys_matches_two_step_catalog () =
  let module Jobs = Shell_serve.Jobs in
  let module Flow = Shell_core.Flow in
  let module Emit = Shell_fabric.Emit in
  List.iter
    (fun (e : Shell_circuits.Catalog.entry) ->
      List.iter
        (fun style ->
          List.iter
            (fun seed ->
              let spec =
                {
                  Shell_serve.Protocol.bench = e.Shell_circuits.Catalog.name;
                  style;
                  route = [];
                  lgc = [];
                  seed;
                }
              in
              let what = Printf.sprintf "%s/%s/%d" spec.bench style seed in
              match Jobs.lock_flow spec with
              | Error d ->
                  Alcotest.failf "%s: %s" what (Shell_util.Diag.to_string d)
              | Ok r ->
                  let key =
                    Shell_fabric.Bitstream.bits
                      r.Flow.emitted.Emit.bitstream
                  in
                  let check how nl key =
                    Alcotest.(check bool) (what ^ " " ^ how) true
                      (same_binding nl key)
                  in
                  check "bitstream" r.Flow.locked_full key;
                  check "complement" r.Flow.locked_full (Array.map not key);
                  check "emitted" r.Flow.emitted.Emit.locked key)
            [ 0x51e11; 7 ])
        [ "openfpga"; "fabulous"; "muxchain" ])
    Shell_circuits.Catalog.all

(* generated designs, with their own key ports or locked by a scheme,
   bound under random keys *)
let test_bind_keys_matches_two_step_gen =
  QCheck.Test.make ~name:"bind_keys matches the two-step build on fuzz designs"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (seed, key_seed) ->
      let module Gen = Shell_fuzz.Gen in
      let module Schemes = Shell_locking.Schemes in
      let rng = Rng.create seed in
      let nl = Gen.netlist rng (Gen.random_shape rng) in
      let nl =
        match seed mod 3 with
        | 0 -> nl
        | 1 -> (Schemes.xor_keys ~seed ~bits:6 nl).Shell_locking.Locked.locked
        | _ -> (Schemes.mux_routing ~seed ~width:4 nl).Shell_locking.Locked.locked
      in
      let krng = Rng.create key_seed in
      let key = Array.init (List.length (N.keys nl)) (fun _ -> Rng.bool krng) in
      same_binding nl key)

(* A digest change would orphan every spill-store key made from it, so
   the catalog's digests are pinned. *)
let test_fingerprint_pinned () =
  List.iter
    (fun (name, digest) ->
      match Shell_circuits.Catalog.find name with
      | None -> Alcotest.failf "no catalog design %s" name
      | Some e ->
          Alcotest.(check string) name digest
            (N.fingerprint (e.Shell_circuits.Catalog.netlist ())))
    [
      ("PicoSoC", "65eac457c7516325");
      ("AES", "f8d12a6d4e277131");
      ("FIR", "c5cd849fbd38602e");
      ("SPMV", "ef794e74329d93b7");
      ("DLA", "83fe339593e69e0d");
    ]

(* The fingerprint is memoized: every mutator clears the memo, so the
   digest always equals a fresh copy's (which computes it afresh). *)
let test_fingerprint_memo_mutators () =
  let nl = fixture () in
  let step what mutate =
    let before = N.fingerprint nl in
    Alcotest.(check bool) (what ^ ": memo hit") true
      (before == N.fingerprint nl);
    mutate ();
    let after = N.fingerprint nl in
    Alcotest.(check string) (what ^ ": digest of a fresh copy")
      (N.fingerprint (N.copy nl)) after;
    Alcotest.(check bool) (what ^ ": digest moved") false
      (String.equal before after)
  in
  step "add_input" (fun () -> ignore (N.add_input nl "d"));
  step "add_key" (fun () -> ignore (N.add_key nl "k"));
  step "new_net" (fun () -> ignore (N.new_net nl));
  step "add_cell" (fun () ->
      N.add_cell nl (Cell.make Cell.Not [| 0 |] (N.num_nets nl - 1)));
  step "gate builder" (fun () -> ignore (N.and_ nl 0 1));
  step "add_output" (fun () -> N.add_output nl "z" 2);
  step "set_origin" (fun () -> N.set_origin nl 0 "fix/xor")

(* [copy], [map_cells], [filter_outputs] and [comb_view] compute their
   own digest: a memo hit returns the same string, a fresh digest a new
   one. *)
let test_fingerprint_memo_fresh_on_copy () =
  let nl = fixture () in
  let fp = N.fingerprint nl in
  List.iter
    (fun (what, t, same) ->
      let fp' = N.fingerprint t in
      Alcotest.(check bool) (what ^ " computes its own") false (fp' == fp);
      Alcotest.(check bool) (what ^ " digest") same (String.equal fp' fp))
    [
      ("copy", N.copy nl, true);
      ("map_cells", N.map_cells nl (fun _ c -> c), true);
      ("filter_outputs", N.filter_outputs nl (fun _ -> true), true);
      ( "map_cells retagging",
        N.map_cells nl (fun _ c -> { c with Cell.origin = "x" }),
        false );
      ("filter_outputs dropping", N.filter_outputs nl (fun nm -> nm = "y"), false);
      ("comb_view", N.comb_view nl, false);
    ];
  Alcotest.(check bool) "the source keeps its memo" true (N.fingerprint nl == fp)

(* The digest is folded in place: no word per mixed value. *)
let test_fingerprint_allocation () =
  let nl = Shell_circuits.Fir.netlist () in
  let w0 = Gc.minor_words () in
  ignore (N.fingerprint nl);
  let words = Gc.minor_words () -. w0 in
  if words >= 1000. then
    Alcotest.failf "fingerprint of FIR allocated %.0f minor words" words

let test_splice_replace () =
  (* replace the xor in the fixture with an equivalent xnor+not *)
  let nl = fixture () in
  let repl = N.create "r" in
  let p = N.add_input repl "sub_in0" in
  let q = N.add_input repl "sub_in1" in
  let v = N.not_ repl (N.xnor_ repl p q) in
  N.add_output repl "sub_out0" v;
  let xor_cell = 0 in
  let c = N.cell nl xor_cell in
  let spliced =
    Splice.replace_cells nl
      ~remove:(fun i -> i = xor_cell)
      ~replacement:repl
      ~input_binding:[ ("sub_in0", c.Cell.ins.(0)); ("sub_in1", c.Cell.ins.(1)) ]
      ~output_binding:[ ("sub_out0", c.Cell.out) ]
  in
  Alcotest.(check bool) "equivalent" true
    (match Equiv.check_sequential nl spliced with
    | Equiv.Equivalent -> true
    | _ -> false)

let test_equiv_detects_difference () =
  let mk flip =
    let nl = N.create "d" in
    let a = N.add_input nl "a" in
    let b = N.add_input nl "b" in
    let y = if flip then N.or_ nl a b else N.and_ nl a b in
    N.add_output nl "y" y;
    nl
  in
  match Equiv.check (mk false) (mk true) with
  | Equiv.Counterexample _ -> ()
  | Equiv.Equivalent -> Alcotest.fail "missed difference"

let test_stats () =
  let nl = fixture () in
  let stats = N.stats nl in
  Alcotest.(check (option int)) "one xor" (Some 1) (List.assoc_opt "xor2" stats);
  Alcotest.(check (option int)) "one dff" (Some 1) (List.assoc_opt "dff" stats)

(* binding keys as constants must agree with simulating under them *)
let test_bind_keys_agrees_with_sim =
  QCheck.Test.make ~name:"bind_keys agrees with keyed simulation" ~count:25
    QCheck.(pair (int_bound 100_000) (int_bound 255))
    (fun (seed, keybits) ->
      let nl = random_nl seed 5 40 in
      (* lock a few nets with xor key gates *)
      let lk = Shell_locking.Schemes.xor_keys ~seed ~bits:6 nl in
      let locked = lk.Shell_locking.Locked.locked in
      let keys =
        Array.init
          (List.length (N.keys locked))
          (fun i -> keybits land (1 lsl i) <> 0)
      in
      let bound = Specialize.bind_keys locked keys in
      let sim_locked = Sim.create locked in
      let sim_bound = Sim.create bound in
      let rng = Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 16 do
        let ins = Array.init 5 (fun _ -> Rng.bool rng) in
        if Sim.eval_comb sim_locked ~keys ins <> Sim.eval_comb sim_bound ins
        then ok := false
      done;
      !ok)

(* extracting any region and splicing it straight back is an identity *)
let test_random_region_splice =
  QCheck.Test.make ~name:"random region extract/splice identity" ~count:20
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (seed, mask_seed) ->
      let nl = random_nl seed 6 60 in
      let rng = Rng.create mask_seed in
      let member = Array.init (N.num_cells nl) (fun _ -> Rng.bool rng) in
      let cut =
        Shell_core.Extraction.extract nl ~member:(fun i -> member.(i))
      in
      let back =
        Shell_core.Extraction.reassemble nl cut
          ~replacement:cut.Shell_core.Extraction.sub
      in
      match Equiv.check nl back with
      | Equiv.Equivalent -> true
      | Equiv.Counterexample _ -> false)

(* ---------------- oracles for the flat-array kernels ---------------- *)

module Diag = Shell_util.Diag
module Flow = Shell_core.Flow
module Extraction = Shell_core.Extraction

(* The list-and-Queue Kahn sort that [Netlist]'s CSR sort replaced,
   kept as its oracle: successors newest first, sequential cells last,
   [None] when the combinational part is cyclic. *)
let kahn_oracle nl =
  let cells = N.cells nl in
  let n = Array.length cells in
  let seq i = Cell.is_sequential cells.(i).Cell.kind in
  let indeg = Array.make n 0 and succs = Array.make n [] in
  for i = 0 to n - 1 do
    if not (seq i) then
      Array.iter
        (fun net ->
          match N.driver nl net with
          | Some j when not (seq j) ->
              indeg.(i) <- indeg.(i) + 1;
              succs.(j) <- i :: succs.(j)
          | Some _ | None -> ())
        cells.(i).Cell.ins
  done;
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if (not (seq i)) && indeg.(i) = 0 then Queue.add i queue
  done;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := i :: !order;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  let all = List.init n Fun.id in
  if List.length !order <> List.length (List.filter (fun i -> not (seq i)) all)
  then None
  else Some (Array.of_list (List.rev !order @ List.filter seq all))

let check_order what nl =
  let got =
    match N.topo_order nl with o -> Some o | exception Failure _ -> None
  in
  Alcotest.(check (option (array int))) (what ^ ": order") (kahn_oracle nl) got

(* The splice the one-build reassembly replaced, kept as its oracle:
   build the spliced netlist, validate it, then let
   [Rewrite.sweep_buffers] rebuild it without its buffers. *)
let splice_two_step parent ~remove ~replacement ~input_binding
    ~output_binding =
  let out = N.create (N.name parent) in
  let pmap = Array.make (max (N.num_nets parent) 1) (-1) in
  let rmap = Array.make (max (N.num_nets replacement) 1) (-1) in
  List.iter
    (fun (nm, net) -> pmap.(net) <- N.add_input out nm)
    (N.inputs parent);
  List.iter (fun (nm, net) -> pmap.(net) <- N.add_key out nm) (N.keys parent);
  List.iter
    (fun (nm, net) -> rmap.(net) <- N.add_key out nm)
    (N.keys replacement);
  let map_parent net =
    if pmap.(net) = -1 then pmap.(net) <- N.new_net out;
    pmap.(net)
  in
  let map_repl net =
    if rmap.(net) = -1 then rmap.(net) <- N.new_net out;
    rmap.(net)
  in
  List.iter
    (fun (port, parent_net) ->
      match List.assoc_opt port (N.inputs replacement) with
      | None -> invalid_arg ("Splice: replacement has no input " ^ port)
      | Some rnet ->
          if rmap.(rnet) <> -1 then
            invalid_arg ("Splice: input bound twice: " ^ port);
          rmap.(rnet) <- map_parent parent_net)
    input_binding;
  List.iter
    (fun (nm, rnet) ->
      if rmap.(rnet) = -1 then
        invalid_arg ("Splice: replacement input unbound: " ^ nm))
    (N.inputs replacement);
  Array.iteri
    (fun i c ->
      if not (remove i) then
        N.add_cell out
          (Cell.make ~origin:c.Cell.origin c.Cell.kind
             (Array.map map_parent c.Cell.ins)
             (map_parent c.Cell.out)))
    (N.cells parent);
  Array.iter
    (fun c ->
      N.add_cell out
        (Cell.make ~origin:c.Cell.origin c.Cell.kind
           (Array.map map_repl c.Cell.ins)
           (map_repl c.Cell.out)))
    (N.cells replacement);
  List.iter
    (fun (port, parent_net) ->
      match List.assoc_opt port (N.outputs replacement) with
      | None -> invalid_arg ("Splice: replacement has no output " ^ port)
      | Some rnet ->
          N.add_cell out
            (Cell.make ~origin:"splice" Cell.Buf
               [| map_repl rnet |]
               (map_parent parent_net)))
    output_binding;
  List.iter
    (fun (nm, net) -> N.add_output out nm (map_parent net))
    (N.outputs parent);
  match N.validate out with
  | Ok () -> Rewrite.sweep_buffers out
  | Error d ->
      raise (Diag.Error { d with Diag.context = "Splice" :: d.Diag.context })

(* what a splice gives: the result's fingerprint, or the exception
   with its whole diagnostic (context, message and payload) *)
let splice_outcome f =
  match f () with
  | nl -> "ok " ^ N.fingerprint nl
  | exception Invalid_argument m -> "invalid_argument " ^ m
  | exception Diag.Error d -> "diag " ^ Diag.to_string d

let check_splice what parent ~remove ~replacement ~input_binding
    ~output_binding =
  let run f () = f parent ~remove ~replacement ~input_binding ~output_binding in
  Alcotest.(check string)
    what
    (splice_outcome (run splice_two_step))
    (splice_outcome (run Splice.replace_cells))

(* [Extraction.reassemble]'s splice of [replacement] into [cut] *)
let check_reassembly what original (cut : Extraction.cut) ~replacement =
  let inside = Array.make (max (N.num_cells original) 1) false in
  List.iter (fun ci -> inside.(ci) <- true) cut.Extraction.cells;
  check_splice what original
    ~remove:(fun i -> inside.(i))
    ~replacement ~input_binding:cut.Extraction.input_binding
    ~output_binding:cut.Extraction.output_binding

(* the locked design of every catalog circuit under every style, at
   four seeds *)
let lock_classes =
  lazy
    (List.concat_map
       (fun (e : Shell_circuits.Catalog.entry) ->
         List.concat_map
           (fun style ->
             List.map
               (fun seed ->
                 let bench = e.Shell_circuits.Catalog.name in
                 let spec =
                   {
                     Shell_serve.Protocol.bench;
                     style;
                     route = [];
                     lgc = [];
                     seed;
                   }
                 in
                 let what = Printf.sprintf "%s/%s/%d" bench style seed in
                 match Shell_serve.Jobs.lock_flow spec with
                 | Ok r -> (what, r)
                 | Error d -> Alcotest.failf "%s: %s" what (Diag.to_string d))
               [ 0x51e11; 7; 3; 11 ])
           [ "openfpga"; "fabulous"; "muxchain" ])
       Shell_circuits.Catalog.all)

(* random netlists with everything the sort must handle: sequential
   cells, nets read before they are driven (so cycles), multi-driven
   and undriven nets, repeated reads *)
let random_graph_nl seed =
  let rng = Rng.create seed in
  let nl = N.create "graph" in
  for i = 0 to Rng.int rng 4 do
    ignore (N.add_input nl (Printf.sprintf "i%d" i))
  done;
  let n_nets = N.num_nets nl + 4 + Rng.int rng 40 in
  while N.num_nets nl < n_nets do
    ignore (N.new_net nl)
  done;
  let net () = Rng.int rng n_nets in
  let kinds =
    Cell.[| And; Xor; Not; Buf; Mux2; Mux4; Dff; Config_latch |]
  in
  for _ = 0 to Rng.int rng 50 do
    let kind = Rng.choice rng kinds in
    let ins = Array.init (Cell.arity kind) (fun _ -> net ()) in
    N.add_cell nl (Cell.make kind ins (net ()))
  done;
  nl

let test_sort_matches_kahn () =
  List.iter
    (fun name ->
      match Shell_serve.Jobs.netlist_of_bench name with
      | Ok nl -> check_order name nl
      | Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d))
    [ "PicoSoC"; "AES"; "FIR"; "SPMV"; "DLA"; "soc"; "xbar"; "desx" ];
  let cyclic = ref 0 in
  List.iter
    (fun (what, (r : Flow.result)) ->
      (* a fresh copy sorts again *)
      let nl = N.copy r.Flow.locked_full in
      if N.has_comb_cycle nl then incr cyclic;
      check_order what nl)
    (Lazy.force lock_classes);
  let random_cyclic = ref 0 in
  for seed = 1 to 400 do
    let nl = random_graph_nl seed in
    if kahn_oracle nl = None then incr random_cyclic;
    check_order (Printf.sprintf "random %d" seed) nl;
    let rng = Rng.create seed in
    check_order
      (Printf.sprintf "generated %d" seed)
      (Shell_fuzz.Gen.netlist rng (Shell_fuzz.Gen.random_shape rng))
  done;
  Alcotest.(check bool) "some locked designs are cyclic" true (!cyclic > 0);
  Alcotest.(check bool) "random designs both ways" true
    (!random_cyclic > 50 && !random_cyclic < 350)

let test_splice_matches_two_step_lock () =
  List.iter
    (fun (what, (r : Flow.result)) ->
      let replacement = r.Flow.emitted.Shell_fabric.Emit.locked in
      check_reassembly what r.Flow.original r.Flow.cut ~replacement;
      Alcotest.(check string)
        (what ^ ": locked_full")
        (N.fingerprint
           (Extraction.reassemble r.Flow.original r.Flow.cut ~replacement))
        (N.fingerprint r.Flow.locked_full))
    (Lazy.force lock_classes)

(* random cuts of generated designs, put back as they were, locked
   with key gates (keys to lift) or cleaned (fewer buffers to sweep) *)
let test_splice_matches_two_step_random () =
  for seed = 1 to 200 do
    let rng = Rng.create (31 * seed) in
    let nl = Shell_fuzz.Gen.netlist rng (Shell_fuzz.Gen.random_shape rng) in
    let member = Array.init (N.num_cells nl) (fun _ -> Rng.int rng 3 = 0) in
    let cut = Extraction.extract nl ~member:(fun i -> member.(i)) in
    let sub = cut.Extraction.sub in
    let replacement =
      match seed mod 3 with
      | 0 -> sub
      | 1 ->
          (Shell_locking.Schemes.xor_keys ~seed ~bits:3 sub)
            .Shell_locking.Locked.locked
      | _ -> Rewrite.clean sub
    in
    check_reassembly (Printf.sprintf "random cut %d" seed) nl cut ~replacement
  done

(* every way a splice can be invalid fails as the two-step splice did *)
let test_splice_errors_match_two_step () =
  (* y = (a xor b) and c: the replacement stands in for the xor *)
  let parent = fixture () in
  let xor_cell = 0 and and_cell = 1 in
  let x = (N.cell parent xor_cell).Cell.out in
  let a = List.assoc "a" (N.inputs parent) in
  let b = List.assoc "b" (N.inputs parent) in
  let repl = N.create "r" in
  let p = N.add_input repl "p" in
  let q = N.add_input repl "q" in
  N.add_output repl "z" (N.xor_ repl p q);
  let both = [ ("p", a); ("q", b) ] and z = [ ("z", x) ] in
  (* (case, removed cells, input binding, output binding, how the
     outcome starts) *)
  let cases =
    [
      ( "unbound input", [ xor_cell ], [ ("p", a) ], z,
        "invalid_argument Splice: replacement input unbound: q" );
      ( "doubly bound input", [ xor_cell ], both @ [ ("p", b) ], z,
        "invalid_argument Splice: input bound twice: p" );
      ( "no such input", [ xor_cell ], [ ("p", a); ("r", b) ], z,
        "invalid_argument Splice: replacement has no input r" );
      ( "missing output port", [ xor_cell ], both, [ ("w", x) ],
        "invalid_argument Splice: replacement has no output w" );
      ( "doubly driven net", [], both, z,
        "diag Splice: validate: fix: net n3 has 2 drivers" );
      ( "undriven read", [ xor_cell ], both, [],
        "diag Splice: validate: fix: net n4 is read but never driven" );
      ( "undriven output", [ xor_cell; and_cell ], both, [],
        "diag Splice: validate: fix: output y reads undriven net" );
      ("valid", [ xor_cell ], both, z, "ok ");
    ]
  in
  let starts_with pre s =
    String.length s >= String.length pre
    && String.sub s 0 (String.length pre) = pre
  in
  List.iter
    (fun (what, removed, input_binding, output_binding, expect) ->
      let remove i = List.mem i removed in
      check_splice what parent ~remove ~replacement:repl ~input_binding
        ~output_binding;
      let got =
        splice_outcome (fun () ->
            Splice.replace_cells parent ~remove ~replacement:repl
              ~input_binding ~output_binding)
      in
      Alcotest.(check bool) (what ^ ": " ^ got) true (starts_with expect got))
    cases;
  (* a lifted key named like one of the parent's *)
  let keyed = fixture () in
  ignore (N.add_key keyed "k0");
  let repl_k = N.create "rk" in
  let p = N.add_input repl_k "p" in
  let q = N.add_input repl_k "q" in
  let k = N.add_key repl_k "k0" in
  N.add_output repl_k "z" (N.xor_ repl_k (N.xor_ repl_k p q) k);
  let remove i = i = xor_cell in
  check_splice "duplicate key port" keyed ~remove ~replacement:repl_k
    ~input_binding:both ~output_binding:z;
  Alcotest.(check string)
    "duplicate key port diagnostic"
    "diag Splice: validate: fix: duplicate key port name k0 [duplicate-port k0]"
    (splice_outcome (fun () ->
         Splice.replace_cells keyed ~remove ~replacement:repl_k
           ~input_binding:both ~output_binding:z))

(* ---------------- fuzz regression corpus + emitter lint ---------------- *)

let read_regression file =
  let ic = open_in (Filename.concat "regressions" file) in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let declared_names src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         let strip p =
           if
             String.length line > String.length p
             && String.sub line 0 (String.length p) = p
           then
             let rest =
               String.sub line (String.length p)
                 (String.length line - String.length p)
             in
             match String.index_opt rest ';' with
             | Some i -> Some (String.trim (String.sub rest 0 i))
             | None -> None
           else None
         in
         List.find_map strip
           [ "(* keyinput *) input "; "input "; "output "; "wire " ])

let check_unique_decls src =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun nm ->
      if Hashtbl.mem tbl nm then Alcotest.fail ("duplicate declaration: " ^ nm);
      Hashtbl.add tbl nm ())
    (declared_names src)

let test_verilog_keyinput_attribute () =
  (* keys are attribute-tagged inputs; "keyinput" is not a Verilog
     keyword and must never appear as a bare declaration *)
  let nl = N.create "k" in
  let a = N.add_input nl "a" in
  let k = N.add_key nl "kx0" in
  N.add_output nl "y" (N.xor_ nl a k);
  let src = Verilog.to_string nl in
  let lines = String.split_on_char '\n' src |> List.map String.trim in
  Alcotest.(check bool)
    "no bare keyinput declaration" false
    (List.exists
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "keyinput ")
       lines);
  Alcotest.(check bool)
    "attribute form present" true
    (List.mem "(* keyinput *) input kx0;" lines);
  let nl2 = Verilog.parse src in
  Alcotest.(check int) "key survives roundtrip" 1 (List.length (N.keys nl2));
  check_unique_decls src

let test_verilog_fallback_collision () =
  (* a port literally named n3 while net 3 is an anonymous cell output:
     the fallback name must be uniquified away from the port *)
  let nl = N.create "alias" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let n3 = N.add_input nl "n3" in
  let t = N.and_ nl a b in
  N.add_output nl "y" (N.xor_ nl t n3);
  let src = Verilog.to_string nl in
  check_unique_decls src;
  let nl2 = Verilog.parse src in
  Alcotest.(check bool) "equivalent" true (equivalent nl nl2)

let test_regression_port_alias () =
  let nl = Verilog.parse (read_regression "fuzz_verilog_port_alias.v") in
  Alcotest.(check int) "three inputs" 3 (List.length (N.inputs nl));
  let src = Verilog.to_string nl in
  check_unique_decls src;
  let nl2 = Verilog.parse src in
  Alcotest.(check bool) "equivalent" true (equivalent nl nl2)

let test_regression_keyinput_attr () =
  let nl = Verilog.parse (read_regression "fuzz_keyinput_attr.v") in
  Alcotest.(check int) "one key" 1 (List.length (N.keys nl));
  Alcotest.(check (list string))
    "key name" [ "kx0" ]
    (List.map fst (N.keys nl));
  let src = Verilog.to_string nl in
  check_unique_decls src;
  let nl2 = Verilog.parse src in
  Alcotest.(check bool) "equivalent under key" true
    (match Equiv.check ~keys_a:[| true |] ~keys_b:[| true |] nl nl2 with
    | Equiv.Equivalent -> true
    | _ -> false)

(* ---- Simw: word-level simulation ---- *)

module Simw = Shell_netlist.Simw

(* mixed-kind combinational fixture exercising every word-level path:
   gates, mux2/mux4, consts, LUTs (arities 2, 3 and 6) *)
let mixed_nl () =
  let nl = N.create "mixed" in
  let ins = Array.init 8 (fun i -> N.add_input nl (Printf.sprintf "i%d" i)) in
  let one = N.gate nl (Cell.Const true) [||] in
  let m2 = N.mux2 nl ~sel:ins.(0) ~a:ins.(1) ~b:ins.(2) in
  let m4 = N.mux4 nl ~s0:ins.(3) ~s1:ins.(4) [| ins.(5); ins.(6); ins.(7); one |] in
  let l3 =
    N.lut nl
      (Truthtab.of_fun ~arity:3 (fun v -> (v.(0) && v.(1)) <> v.(2)))
      [| m2; m4; ins.(0) |]
  in
  let l6 =
    N.lut nl
      (Truthtab.of_fun ~arity:6 (fun v ->
           Array.fold_left (fun acc b -> acc <> b) (v.(0) && v.(5)) v))
      [| ins.(1); ins.(2); ins.(3); ins.(4); ins.(5); l3 |]
  in
  let l2 = N.lut nl (Truthtab.of_fun ~arity:2 (fun v -> v.(0) || not v.(1))) [| l6; m2 |] in
  N.add_output nl "y0" l3;
  N.add_output nl "y1" l6;
  N.add_output nl "y2" (N.xor_ nl l2 m4);
  nl

let test_simw_pack_lane_roundtrip () =
  let rng = Rng.create 0xabc in
  let lanes = 17 and bits = 9 in
  let vecs =
    Array.init lanes (fun _ -> Array.init bits (fun _ -> Rng.bool rng))
  in
  let words = Simw.pack vecs in
  for l = 0 to lanes - 1 do
    Alcotest.(check (array bool))
      (Printf.sprintf "lane %d" l)
      vecs.(l)
      (Simw.lane words l)
  done;
  Alcotest.(check int) "first_lane" 3 (Simw.first_lane 0b11000);
  Alcotest.(check int) "first_lane msb" (Simw.width - 1)
    (Simw.first_lane (1 lsl (Simw.width - 1)))

let simw_agrees name nl =
  let rng = Rng.create 0x51 in
  let n_in = List.length (N.inputs nl) in
  let sim = Sim.create nl and simw = Simw.create nl in
  List.iter
    (fun lanes ->
      let vecs =
        Array.init lanes (fun _ -> Array.init n_in (fun _ -> Rng.bool rng))
      in
      let words = Simw.eval_comb simw ~lanes (Simw.pack vecs) in
      Array.iteri
        (fun l vec ->
          Alcotest.(check (array bool))
            (Printf.sprintf "%s lanes=%d lane %d" name lanes l)
            (Sim.eval_comb sim vec) (Simw.lane words l))
        vecs)
    [ 1; 5; Simw.width ]

let test_simw_matches_sim_comb () =
  simw_agrees "mixed" (mixed_nl ());
  simw_agrees "rand" (random_nl 99 10 60)

let test_simw_sequential_lanes () =
  (* per-lane DFF state: [lanes] independent scalar runs must match one
     word-level run, cycle by cycle, across every net *)
  let lanes = 5 and cycles = 6 in
  let rng = Rng.create 0xd1f in
  let sims = Array.init lanes (fun _ -> Sim.create (fixture ())) in
  let simw = Simw.create (fixture ()) in
  for cycle = 1 to cycles do
    let vecs =
      Array.init lanes (fun _ -> Array.init 3 (fun _ -> Rng.bool rng))
    in
    let wout = Simw.step simw ~lanes (Simw.pack vecs) in
    let wnets = Simw.net_values simw ~lanes in
    Array.iteri
      (fun l vec ->
        Alcotest.(check (array bool))
          (Printf.sprintf "cycle %d lane %d outs" cycle l)
          (Sim.step sims.(l) vec) (Simw.lane wout l);
        Alcotest.(check (array bool))
          (Printf.sprintf "cycle %d lane %d nets" cycle l)
          (Sim.net_values sims.(l)) (Simw.lane wnets l))
      vecs
  done;
  Simw.reset simw;
  Array.iter Sim.reset sims;
  let zero = Array.make 3 false in
  let wout = Simw.step simw ~lanes (Simw.pack (Array.make lanes zero)) in
  Alcotest.(check (array bool)) "reset clears all lanes"
    (Sim.step sims.(0) zero) (Simw.lane wout 0)

let test_simw_config_latch () =
  (* broadcast config words: a Simw with a loaded bitstream must agree
     with Sim under the same config, keys included *)
  let build () =
    let nl = N.create "cfg" in
    let a = N.add_input nl "a" in
    let k = N.add_key nl "k0" in
    let q0 = N.new_net nl and q1 = N.new_net nl in
    N.add_cell nl (Cell.make Cell.Config_latch [| a |] q0);
    N.add_cell nl (Cell.make Cell.Config_latch [| a |] q1);
    N.add_output nl "y" (N.xor_ nl (N.mux2 nl ~sel:q0 ~a ~b:q1) k);
    nl
  in
  Alcotest.(check int) "latch count" 2 (Simw.num_config_latches (build ()));
  let rng = Rng.create 0xcf9 in
  List.iter
    (fun config ->
      let sim = Sim.create ~config (build ())
      and simw = Simw.create ~config (build ()) in
      let lanes = 7 in
      let keys = [| Rng.bool rng |] in
      let vecs =
        Array.init lanes (fun _ -> [| Rng.bool rng |])
      in
      let wout = Simw.eval_comb simw ~keys ~lanes (Simw.pack vecs) in
      Array.iteri
        (fun l vec ->
          Alcotest.(check (array bool))
            (Printf.sprintf "lane %d" l)
            (Sim.eval_comb sim ~keys vec) (Simw.lane wout l))
        vecs)
    [ [| false; false |]; [| true; false |]; [| true; true |] ]

let test_simw_lane_masking () =
  (* internal junk lanes (here from lnot) must never leak past the
     active lane count in read-outs *)
  let nl = N.create "mask" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.not_ nl a);
  let simw = Simw.create nl in
  let lanes = 5 in
  let out = Simw.eval_comb simw ~lanes [| 0 |] in
  Alcotest.(check int) "output masked" ((1 lsl lanes) - 1) out.(0);
  Array.iteri
    (fun i w ->
      Alcotest.(check bool)
        (Printf.sprintf "net %d masked" i)
        true
        (w land lnot ((1 lsl lanes) - 1) = 0))
    (Simw.net_values simw ~lanes)

let test_equiv_cex_exhaustive_order () =
  (* exhaustive mode reports the lowest differing vector index: xor vs
     or first differ at v=3 = (a=1, b=1) *)
  let mk kind =
    let nl = N.create "g" in
    let a = N.add_input nl "a" and b = N.add_input nl "b" in
    N.add_output nl "y" (N.gate nl kind [| a; b |]);
    nl
  in
  match Equiv.check (mk Cell.Xor) (mk Cell.Or) with
  | Equiv.Counterexample cex ->
      Alcotest.(check (array bool)) "first vector" [| true; true |] cex
  | Equiv.Equivalent -> Alcotest.fail "xor vs or must differ"

let test_equiv_cex_random_byte_identity () =
  (* >16 inputs forces the sampled path. The word-level engine must
     report the exact counterexample the historical scalar loop found:
     first failing vector in Rng.create 0x5eed draw order. *)
  let n_in = 17 in
  let mk spoil =
    let nl = N.create "p" in
    let ins =
      Array.init n_in (fun i -> N.add_input nl (Printf.sprintf "i%d" i))
    in
    let parity = Array.fold_left (fun acc n -> N.xor_ nl acc n) ins.(0)
        (Array.sub ins 1 (n_in - 1)) in
    let y =
      if spoil then
        N.xor_ nl parity (N.and_ nl ins.(0) (N.and_ nl ins.(1) ins.(2)))
      else parity
    in
    N.add_output nl "y" y;
    nl
  in
  let a = mk false and b = mk true in
  (* reference: the historical scalar algorithm, replayed by hand on
     the reference simulator *)
  let sa = Sim.create a and sb = Sim.create b in
  let rng = Rng.create 0x5eed in
  let expected = ref None in
  (try
     for _ = 1 to 256 do
       let vec = Array.init n_in (fun _ -> Rng.bool rng) in
       if Sim.eval_comb sa vec <> Sim.eval_comb sb vec then begin
         expected := Some vec;
         raise Exit
       end
     done
   with Exit -> ());
  match (Equiv.check a b, !expected) with
  | Equiv.Counterexample cex, Some want ->
      Alcotest.(check (array bool)) "byte-identical counterexample" want cex
  | Equiv.Equivalent, Some _ -> Alcotest.fail "check missed the difference"
  | _, None -> Alcotest.fail "reference loop found no difference in 256 vectors"

let test_equiv_sequential_still_finds () =
  (* check_sequential through the word engine still catches a state
     divergence and returns a well-formed stimulus vector *)
  let mk negate =
    let nl = N.create "s" in
    let a = N.add_input nl "a" in
    let q = N.new_net nl in
    let d = if negate then N.not_ nl (N.xor_ nl a q) else N.xor_ nl a q in
    N.add_cell nl (Cell.make Cell.Dff [| d |] q);
    N.add_output nl "q" q;
    nl
  in
  match Equiv.check_sequential (mk false) (mk true) with
  | Equiv.Counterexample cex -> Alcotest.(check int) "vector width" 1 (Array.length cex)
  | Equiv.Equivalent -> Alcotest.fail "negated feedback must diverge"

let suite =
  [
    ("validate ok", `Quick, test_validate_ok);
    ("validate double driver", `Quick, test_validate_double_driver);
    ("validate floating read", `Quick, test_validate_floating_read);
    ("validate bad net id", `Quick, test_validate_bad_net_id);
    ("validate dangling output", `Quick, test_validate_dangling_output);
    ("validate duplicate port", `Quick, test_validate_duplicate_port);
    ("validate_all collects every violation", `Quick, test_validate_all_collects);
    ("driver/fanout", `Quick, test_driver_fanout);
    ("topo order valid", `Quick, test_topo_order_valid);
    ("cycle detection", `Quick, test_cycle_detection);
    ("memo: new net after a query", `Quick, test_memo_new_net_after_query);
    ("memo: order shared", `Quick, test_memo_order_shared);
    ("memo: mutations clear", `Quick, test_memo_mutations_clear);
    ("memo: copy and comb_view fresh", `Quick, test_memo_fresh_on_copy);
    ("memo: cyclic answer", `Quick, test_memo_cyclic);
    ("memo: shared across domains", `Quick, test_memo_shared_across_domains);
    ("cells: shared, never written", `Quick, test_cells_shared);
    ("add_cell and map_cells check arity", `Quick, test_arity_refused);
    ("sim comb", `Quick, test_sim_comb);
    ("sim sequential", `Quick, test_sim_sequential);
    ("comb view ports", `Quick, test_comb_view_ports);
    ("cost monotone", `Quick, test_cost_monotone);
    ("cost normalize", `Quick, test_cost_normalize);
    ("verilog roundtrip fixture", `Quick, test_verilog_roundtrip_fixture);
    QCheck_alcotest.to_alcotest test_verilog_roundtrip_random;
    ("verilog lut roundtrip", `Quick, test_verilog_lut_roundtrip);
    ("verilog parse errors", `Quick, test_verilog_parse_errors);
    ("verilog keyinput attribute", `Quick, test_verilog_keyinput_attribute);
    ("verilog fallback collision", `Quick, test_verilog_fallback_collision);
    ("regression: port named n1", `Quick, test_regression_port_alias);
    ("regression: keyinput attr file", `Quick, test_regression_keyinput_attr);
    QCheck_alcotest.to_alcotest test_cnf_agrees_with_sim;
    ("rewrite sweep buffers", `Quick, test_rewrite_sweep_buffers);
    ("rewrite dead cells", `Quick, test_rewrite_dead_cells);
    ("specialize keys", `Quick, test_specialize_keys);
    ("specialize breaks cycles", `Quick, test_specialize_breaks_cycles);
    ("bind_keys matches two-step on the catalog", `Quick,
      test_bind_keys_matches_two_step_catalog);
    QCheck_alcotest.to_alcotest test_bind_keys_matches_two_step_gen;
    ("fingerprint pinned", `Quick, test_fingerprint_pinned);
    ("fingerprint allocation", `Quick, test_fingerprint_allocation);
    ("fingerprint memo mutators", `Quick, test_fingerprint_memo_mutators);
    ("fingerprint memo fresh on copy", `Quick,
     test_fingerprint_memo_fresh_on_copy);
    ("splice replace", `Quick, test_splice_replace);
    ("equiv detects difference", `Quick, test_equiv_detects_difference);
    ("simw pack/lane roundtrip", `Quick, test_simw_pack_lane_roundtrip);
    ("simw matches sim (comb)", `Quick, test_simw_matches_sim_comb);
    ("simw per-lane dff state", `Quick, test_simw_sequential_lanes);
    ("simw config latches", `Quick, test_simw_config_latch);
    ("simw lane masking", `Quick, test_simw_lane_masking);
    ("equiv cex exhaustive order", `Quick, test_equiv_cex_exhaustive_order);
    ("equiv cex random byte identity", `Quick, test_equiv_cex_random_byte_identity);
    ("equiv sequential word path", `Quick, test_equiv_sequential_still_finds);
    ("stats", `Quick, test_stats);
    QCheck_alcotest.to_alcotest test_bind_keys_agrees_with_sim;
    QCheck_alcotest.to_alcotest test_random_region_splice;
    ("sort matches the list Kahn", `Quick, test_sort_matches_kahn);
    ("splice matches two-step (lock classes)", `Quick,
     test_splice_matches_two_step_lock);
    ("splice matches two-step (random cuts)", `Quick,
     test_splice_matches_two_step_random);
    ("splice errors match two-step", `Quick, test_splice_errors_match_two_step);
  ]
