(* Tests for shell_rtl: expression widths, elaboration semantics,
   hierarchy flattening, origin tagging, and error reporting. *)

module M = Shell_rtl.Rtl_module
module E = Shell_rtl.Expr
module Elab = Shell_rtl.Elab
module N = Shell_netlist.Netlist
module Sim = Shell_fuzz.Ref_sim

let bits v w = Array.init w (fun i -> v land (1 lsl i) <> 0)

let to_int arr lo n =
  let v = ref 0 in
  for i = 0 to n - 1 do
    if arr.(lo + i) then v := !v lor (1 lsl i)
  done;
  !v

let single_module build =
  let m = M.create "top" in
  build m;
  let d = M.Design.create ~top:"top" in
  M.Design.add_module d m;
  Elab.elaborate d

let test_width_inference () =
  let env = function "a" -> 8 | "b" -> 8 | "c" -> 1 | _ -> raise Not_found in
  let w e = E.width_exn ~env e in
  Alcotest.(check int) "add" 8 (w E.(var "a" +: var "b"));
  Alcotest.(check int) "eq" 1 (w E.(var "a" ==: var "b"));
  Alcotest.(check int) "concat" 16 (w (E.Concat (E.var "a", E.var "b")));
  Alcotest.(check int) "slice" 4 (w (E.slice (E.var "a") 5 2));
  Alcotest.(check int) "mux" 8 (w (E.mux (E.var "c") (E.var "a") (E.var "b")));
  Alcotest.(check int) "reduce" 1 (w (E.Reduce_xor (E.var "a")))

let test_width_errors () =
  let env = function "a" -> 8 | "b" -> 4 | _ -> raise Not_found in
  List.iter
    (fun e ->
      match E.width_exn ~env e with
      | exception E.Width_error _ -> ()
      | _ -> Alcotest.fail "accepted bad widths")
    [
      E.(var "a" +: var "b");
      E.slice (E.var "b") 4 0;
      E.mux (E.var "a") (E.var "b") (E.var "b");
    ]

let test_vars () =
  let e = E.(var "x" +: mux (var "s") (var "x") (var "y")) in
  Alcotest.(check (list string)) "free vars once" [ "x"; "s"; "y" ] (E.vars e)

let test_arith_semantics () =
  let nl =
    single_module (fun m ->
        M.add_input m "a" 8;
        M.add_input m "b" 8;
        M.add_output m "sum" 8;
        M.add_output m "diff" 8;
        M.add_output m "lt" 1;
        M.add_output m "eq" 1;
        M.add_comb m "ops"
          [
            ("sum", E.(var "a" +: var "b"));
            ("diff", E.(var "a" -: var "b"));
            ("lt", E.(var "a" <: var "b"));
            ("eq", E.(var "a" ==: var "b"));
          ])
  in
  let sim = Sim.create nl in
  List.iter
    (fun (a, b) ->
      let outs = Sim.eval_comb sim (Array.append (bits a 8) (bits b 8)) in
      Alcotest.(check int)
        (Printf.sprintf "%d+%d" a b)
        ((a + b) land 0xff) (to_int outs 0 8);
      Alcotest.(check int)
        (Printf.sprintf "%d-%d" a b)
        ((a - b) land 0xff) (to_int outs 8 8);
      Alcotest.(check bool) "lt" (a < b) outs.(16);
      Alcotest.(check bool) "eq" (a = b) outs.(17))
    [ (0, 0); (1, 2); (255, 1); (128, 127); (200, 200); (17, 253) ]

let test_reduce_semantics () =
  let nl =
    single_module (fun m ->
        M.add_input m "a" 4;
        M.add_output m "rand" 1;
        M.add_output m "ror" 1;
        M.add_output m "rxor" 1;
        M.add_comb m "red"
          [
            ("rand", E.Reduce_and (E.var "a"));
            ("ror", E.Reduce_or (E.var "a"));
            ("rxor", E.Reduce_xor (E.var "a"));
          ])
  in
  let sim = Sim.create nl in
  for v = 0 to 15 do
    let outs = Sim.eval_comb sim (bits v 4) in
    Alcotest.(check bool) "and" (v = 15) outs.(0);
    Alcotest.(check bool) "or" (v <> 0) outs.(1);
    let pop = ref 0 in
    for i = 0 to 3 do
      if v land (1 lsl i) <> 0 then incr pop
    done;
    Alcotest.(check bool) "xor" (!pop mod 2 = 1) outs.(2)
  done

let test_register_semantics () =
  let nl =
    single_module (fun m ->
        M.add_input m "d" 4;
        M.add_output m "q" 4;
        M.add_reg m "r" 4;
        M.add_seq m "ff" [ ("r", E.var "d") ];
        M.add_comb m "out" [ ("q", E.var "r") ])
  in
  let sim = Sim.create nl in
  let o1 = Sim.step sim (bits 9 4) in
  Alcotest.(check int) "reset value" 0 (to_int o1 0 4);
  let o2 = Sim.step sim (bits 5 4) in
  Alcotest.(check int) "one cycle later" 9 (to_int o2 0 4)

let test_hierarchy_and_origins () =
  let leaf = M.create "leaf" in
  M.add_input leaf "x" 4;
  M.add_output leaf "y" 4;
  M.add_comb leaf "invert" [ ("y", E.(~:(var "x"))) ];
  let top = M.create "top" in
  M.add_input top "a" 4;
  M.add_output top "z" 4;
  M.add_wire top "mid" 4;
  M.add_instance top ~inst_name:"u0" ~module_name:"leaf"
    ~bindings:[ ("x", "a"); ("y", "mid") ];
  M.add_instance top ~inst_name:"u1" ~module_name:"leaf"
    ~bindings:[ ("x", "mid"); ("y", "z") ];
  let d = M.Design.create ~top:"top" in
  M.Design.add_module d top;
  M.Design.add_module d leaf;
  let nl = Elab.elaborate d in
  (* double inversion = identity *)
  let sim = Sim.create nl in
  Alcotest.(check int) "identity" 11 (to_int (Sim.eval_comb sim (bits 11 4)) 0 4);
  (* uniquified origins: both instances present *)
  let origins = List.map fst (Elab.module_footprint nl) in
  Alcotest.(check bool) "u0 tagged" true
    (List.exists (fun o -> o = "top/u0:invert") origins);
  Alcotest.(check bool) "u1 tagged" true
    (List.exists (fun o -> o = "top/u1:invert") origins)

let expect_elab_error build =
  let d = M.Design.create ~top:"top" in
  let m = M.create "top" in
  build m;
  M.Design.add_module d m;
  match Elab.elaborate d with
  | exception Elab.Elab_error _ -> ()
  | _ -> Alcotest.fail "elaboration should fail"

let test_undriven_signal () =
  expect_elab_error (fun m ->
      M.add_input m "a" 1;
      M.add_output m "y" 1;
      M.add_wire m "w" 1;
      M.add_comb m "blk" [ ("y", E.var "w") ])

let test_double_driver () =
  expect_elab_error (fun m ->
      M.add_input m "a" 1;
      M.add_output m "y" 1;
      M.add_comb m "b1" [ ("y", E.var "a") ];
      M.add_comb m "b2" [ ("y", E.(~:(var "a"))) ])

let test_unknown_module () =
  expect_elab_error (fun m ->
      M.add_input m "a" 1;
      M.add_output m "y" 1;
      M.add_instance m ~inst_name:"u" ~module_name:"ghost"
        ~bindings:[ ("x", "a"); ("y", "y") ])

let test_width_mismatch_in_assign () =
  expect_elab_error (fun m ->
      M.add_input m "a" 4;
      M.add_output m "y" 8;
      M.add_comb m "blk" [ ("y", E.var "a") ])

let test_duplicate_signal () =
  let m = M.create "top" in
  M.add_input m "a" 1;
  match M.add_wire m "a" 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let suite =
  [
    ("width inference", `Quick, test_width_inference);
    ("width errors", `Quick, test_width_errors);
    ("free variables", `Quick, test_vars);
    ("arithmetic semantics", `Quick, test_arith_semantics);
    ("reduce semantics", `Quick, test_reduce_semantics);
    ("register semantics", `Quick, test_register_semantics);
    ("hierarchy + origins", `Quick, test_hierarchy_and_origins);
    ("undriven signal", `Quick, test_undriven_signal);
    ("double driver", `Quick, test_double_driver);
    ("unknown module", `Quick, test_unknown_module);
    ("assign width mismatch", `Quick, test_width_mismatch_in_assign);
    ("duplicate signal", `Quick, test_duplicate_signal);
  ]
