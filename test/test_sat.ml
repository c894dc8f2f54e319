(* Tests for the CDCL solver: hand instances, assumptions,
   incrementality, budgets, and a brute-force differential fuzz. *)

module Solver = Shell_sat.Solver
module Rng = Shell_util.Rng

let solve_result =
  Alcotest.testable
    (fun ppf -> function
      | Solver.Sat -> Format.pp_print_string ppf "Sat"
      | Solver.Unsat -> Format.pp_print_string ppf "Unsat"
      | Solver.Unknown -> Format.pp_print_string ppf "Unknown")
    ( = )

let test_trivial_sat () =
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ -1; 2 ];
  Alcotest.check solve_result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "v2 true" true (Solver.value s 2)

let test_trivial_unsat () =
  let s = Solver.create () in
  Solver.ensure_vars s 1;
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  Alcotest.check solve_result "unsat" Solver.Unsat (Solver.solve s)

let test_empty_clause_unsat () =
  let s = Solver.create () in
  Solver.ensure_vars s 1;
  Solver.add_clause s [ 1; -1 ];  (* tautology: fine *)
  Alcotest.check solve_result "taut sat" Solver.Sat (Solver.solve s);
  Solver.add_clause s [];
  Alcotest.check solve_result "empty clause" Solver.Unsat (Solver.solve s)

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT. var p_ij = 2*(i-1)+j *)
  let s = Solver.create () in
  Solver.ensure_vars s 6;
  for i = 0 to 2 do
    Solver.add_clause s [ (2 * i) + 1; (2 * i) + 2 ]
  done;
  for j = 1 to 2 do
    for i1 = 0 to 2 do
      for i2 = i1 + 1 to 2 do
        Solver.add_clause s [ -((2 * i1) + j); -((2 * i2) + j) ]
      done
    done
  done;
  Alcotest.check solve_result "php(3,2) unsat" Solver.Unsat (Solver.solve s)

let test_assumptions () =
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ -1; 3 ];
  Alcotest.check solve_result "assume -2" Solver.Sat
    (Solver.solve ~assumptions:[ -2 ] s);
  Alcotest.(check bool) "forces v1" true (Solver.value s 1);
  Alcotest.(check bool) "forces v3" true (Solver.value s 3);
  Alcotest.check solve_result "conflicting assumptions" Solver.Unsat
    (Solver.solve ~assumptions:[ -1; -2 ] s);
  (* assumptions are not permanent *)
  Alcotest.check solve_result "still sat" Solver.Sat (Solver.solve s)

(* An assumption outside the existing variables is refused before the
   search reads anything: 0 would name the phantom variable 0, and one
   past the last variable would index past the value table. The solver
   stays usable afterwards. *)
let bad_assumption s a =
  Alcotest.check_raises
    (Printf.sprintf "assumption %d" a)
    (Invalid_argument "Solver.solve: bad assumption")
    (fun () -> ignore (Solver.solve ~assumptions:[ 1; a ] s))

let small_instance () =
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ -1; 3 ];
  s

let test_assumption_zero () =
  let s = small_instance () in
  bad_assumption s 0;
  Alcotest.check solve_result "usable after" Solver.Sat
    (Solver.solve ~assumptions:[ -2 ] s);
  Alcotest.(check bool) "model read" true (Solver.value s 3)

let test_assumption_out_of_range () =
  let s = small_instance () in
  List.iter (bad_assumption s) [ 4; -4; max_int; min_int ];
  Alcotest.check solve_result "usable after" Solver.Unsat
    (Solver.solve ~assumptions:[ -1; -2 ] s)

(* Literals outside the existing variables never reach the clause
   store, through either entry point; a packed batch keeps the clauses
   before a bad one. *)
let test_bad_literals () =
  let s = small_instance () in
  List.iter
    (fun c ->
      Alcotest.check_raises "add_clause"
        (Invalid_argument "Solver.add_clause: bad literal") (fun () ->
          Solver.add_clause s c))
    [ [ 1; 0 ]; [ 4 ]; [ 2; -4 ]; [ min_int ]; [ max_int ] ];
  Alcotest.check_raises "shifted past the last variable"
    (Invalid_argument "Solver.add_clause: bad literal") (fun () ->
      Solver.add_clauses ~shift:2 s [| 1; -2 |]);
  Alcotest.check_raises "shifted until it wraps"
    (Invalid_argument "Solver.add_clause: bad literal") (fun () ->
      Solver.add_clauses ~shift:max_int s [| 1; max_int |]);
  Alcotest.check_raises "a bad length"
    (Invalid_argument "Solver.add_clauses: bad clause length") (fun () ->
      Solver.add_clauses s [| 3; 1; 2 |]);
  Alcotest.check_raises "a length that overflows"
    (Invalid_argument "Solver.add_clauses: bad clause length") (fun () ->
      Solver.add_clauses s [| max_int; 1 |]);
  Alcotest.check_raises "a negative shift"
    (Invalid_argument "Solver.add_clauses: negative shift") (fun () ->
      Solver.add_clauses ~shift:(-1) s [| 1; 2 |]);
  Alcotest.check_raises "the third clause"
    (Invalid_argument "Solver.add_clause: bad literal") (fun () ->
      Solver.add_clauses s [| 1; -3; 1; 2; 1; 7 |]);
  Alcotest.check solve_result "the first two were added" Solver.Unsat
    (Solver.solve ~assumptions:[ 1 ] s)

let test_incremental () =
  let s = Solver.create () in
  Solver.ensure_vars s 4;
  Solver.add_clause s [ 1; 2; 3; 4 ];
  Alcotest.check solve_result "sat" Solver.Sat (Solver.solve s);
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ -2 ];
  Solver.add_clause s [ -3 ];
  Alcotest.check solve_result "narrowed" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "v4 forced" true (Solver.value s 4);
  Solver.add_clause s [ -4 ];
  Alcotest.check solve_result "now unsat" Solver.Unsat (Solver.solve s)

let test_budget_unknown () =
  (* hard random instance at the phase transition with a 1-conflict
     budget is (almost surely) cut short *)
  let rng = Rng.create 77 in
  let s = Solver.create () in
  let nv = 60 in
  Solver.ensure_vars s nv;
  for _ = 1 to int_of_float (4.26 *. float_of_int nv) do
    let lit () =
      let v = 1 + Rng.int rng nv in
      if Rng.bool rng then v else -v
    in
    Solver.add_clause s [ lit (); lit (); lit () ]
  done;
  match Solver.solve ~max_conflicts:1 s with
  | Solver.Unknown | Solver.Sat | Solver.Unsat -> ()
(* any verdict is legal; the call must terminate fast — implicitly
   checked by the test timeout *)

(* pigeons p into p - 1 holes: unsatisfiable, and far more than 256
   conflicts away from saying so for p = 9 *)
let pigeonhole p =
  let h = p - 1 in
  let s = Solver.create () in
  let var i j = (i * h) + j + 1 in
  Solver.ensure_vars s (p * h);
  for i = 0 to p - 1 do
    Solver.add_clause s (List.init h (var i))
  done;
  for j = 0 to h - 1 do
    for i1 = 0 to p - 1 do
      for i2 = i1 + 1 to p - 1 do
        Solver.add_clause s [ -var i1 j; -var i2 j ]
      done
    done
  done;
  s

(* A deadline already past stops the call at its 256th conflict; one
   that never comes leaves the search as it is without one. *)
let test_deadline () =
  let s = pigeonhole 9 in
  Alcotest.check solve_result "past deadline" Solver.Unknown
    (Solver.solve ~deadline:neg_infinity s);
  Alcotest.(check int) "stopped within 256 conflicts" 256
    (Solver.num_conflicts s);
  let run deadline =
    let s = pigeonhole 9 in
    let r = Solver.solve ?deadline ~max_conflicts:1000 s in
    (r, Solver.stats s)
  in
  let r0, st0 = run None and r1, st1 = run (Some infinity) in
  Alcotest.check solve_result "far deadline: same verdict" r0 r1;
  Alcotest.(check bool) "far deadline: same search" true (st0 = st1);
  Alcotest.(check int) "the cap still binds" 1000 st0.Solver.conflicts

(* differential fuzz against brute force *)
let brute nvars clauses =
  let rec go v assign =
    if v > nvars then
      List.for_all
        (fun c ->
          List.exists
            (fun l -> if l > 0 then assign.(l) else not assign.(-l))
            c)
        clauses
    else begin
      assign.(v) <- false;
      go (v + 1) assign
      ||
      (assign.(v) <- true;
       go (v + 1) assign)
    end
  in
  go 1 (Array.make (nvars + 1) false)

let test_fuzz_vs_brute =
  QCheck.Test.make ~name:"cdcl agrees with brute force" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nvars = 3 + Rng.int rng 10 in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Rng.int rng 3 in
            List.init len (fun _ ->
                let v = 1 + Rng.int rng nvars in
                if Rng.bool rng then v else -v))
      in
      let expected = brute nvars clauses in
      let s = Solver.create () in
      Solver.ensure_vars s nvars;
      List.iter (Solver.add_clause s) clauses;
      match (Solver.solve s, expected) with
      | Solver.Sat, true ->
          (* the model must actually satisfy every clause *)
          List.for_all
            (fun c ->
              List.exists
                (fun l ->
                  let v = Solver.value s (abs l) in
                  if l > 0 then v else not v)
                c)
            clauses
      | Solver.Unsat, false -> true
      | _ -> false)

let test_conflicts_counter () =
  let s = Solver.create () in
  Solver.ensure_vars s 8;
  (* xor-ish chain to force conflicts *)
  for v = 1 to 7 do
    Solver.add_clause s [ v; v + 1 ];
    Solver.add_clause s [ -v; -(v + 1) ]
  done;
  ignore (Solver.solve s);
  Alcotest.(check bool) "conflicts non-negative" true (Solver.num_conflicts s >= 0)

(* Pinned search trajectories. Random 3-SAT at the phase transition
   (clause ratio 4.26), drawn from [Rng.create seed], at the default
   solver seed and at portfolio racer 1's. Each entry pins the result
   and the whole effort breakdown, plus the model's MD5: a change to
   the watch scan, the heap order, the restart schedule, the learnt
   literal order or [add_clause]'s simplification moves at least one
   of them. *)
let random_3sat seed nv =
  let rng = Rng.create seed in
  let lit () =
    let v = 1 + Rng.int rng nv in
    if Rng.bool rng then v else -v
  in
  List.init (int_of_float (4.26 *. float_of_int nv)) (fun _ ->
      let a = lit () in
      let b = lit () in
      let c = lit () in
      [ a; b; c ])

let racer1 = 0x5eed + 0x9e37

let show_result = function
  | Solver.Sat -> "Sat"
  | Solver.Unsat -> "Unsat"
  | Solver.Unknown -> "Unknown"

(* result, conflicts, decisions, propagations, restarts, model MD5 *)
let trajectory s r =
  let st = Solver.stats s in
  let model =
    String.init
      (Solver.num_vars s + 1)
      (fun v -> if v > 0 && Solver.value s v then '1' else '0')
  in
  Printf.sprintf "%s c=%d d=%d p=%d r=%d %s" (show_result r) st.Solver.conflicts
    st.Solver.decisions st.Solver.propagations st.Solver.restarts
    (Digest.to_hex (Digest.string model))

let pinned_instances =
  [
    (1, 120, 0, "Sat c=538 d=674 p=18397 r=4 c978cb9a44b7b5931d2c88d6369d52f3");
    ( 1, 120, racer1,
      "Sat c=46 d=73 p=1459 r=0 f9c1153d4dc7756e35e304c8420605ed" );
    ( 2, 150, 0,
      "Sat c=1199 d=1543 p=47134 r=6 d944246b231d2a825efeb62ff0c146d3" );
    ( 2, 150, racer1,
      "Sat c=3198 d=3951 p=129192 r=14 3ec409d36eed9b2cb2526d1c274a5757" );
    ( 3, 175, 0,
      "Sat c=2466 d=3029 p=108995 r=14 af30013368a8507e31db242cc17f454a" );
    ( 3, 175, racer1,
      "Sat c=470 d=585 p=20068 r=3 3746e981d9403f2f1cb6876d1c077957" );
    ( 4, 160, 0,
      "Unsat c=1384 d=1698 p=53714 r=8 63a538ae9d55f2628df82f3d947b8eba" );
    ( 4, 160, racer1,
      "Unsat c=1509 d=1839 p=60716 r=9 6d3c136c7397363492534381b0b8a5f7" );
  ]

let fresh_instance seed nv solver_seed =
  let s = Solver.create ~seed:solver_seed () in
  Solver.ensure_vars s nv;
  List.iter (Solver.add_clause s) (random_3sat seed nv);
  s

(* Assumptions and a conflict budget cut the first call short; the
   second resumes from the learnt state (with two more clauses, one
   carrying a duplicate literal), the third drops the assumptions. *)
let incremental_run () =
  let s = fresh_instance 5 140 0 in
  let assumptions = [ 7; -11; 23 ] in
  let r1 = Solver.solve ~assumptions ~max_conflicts:300 s in
  let t1 = trajectory s r1 in
  Solver.add_clause s [ -7; 11; 40 ];
  Solver.add_clause s [ 12; -13; 7; 12 ];
  let r2 = Solver.solve ~assumptions s in
  let t2 = trajectory s r2 in
  let r3 = Solver.solve s in
  [ t1; t2; trajectory s r3 ]

let test_pinned_trajectory () =
  List.iter
    (fun (seed, nv, solver_seed, expect) ->
      let s = fresh_instance seed nv solver_seed in
      Alcotest.(check string)
        (Printf.sprintf "seed=%d vars=%d solver_seed=%#x" seed nv solver_seed)
        expect
        (trajectory s (Solver.solve s)))
    pinned_instances;
  Alcotest.(check (list string))
    "incremental with assumptions and a budget"
    [
      "Unknown c=300 d=378 p=10056 r=2 c74283dec1869219cd3e3cfeb9ac05cc";
      "Unsat c=512 d=626 p=18011 r=4 c74283dec1869219cd3e3cfeb9ac05cc";
      "Sat c=695 d=875 p=24367 r=5 f06c65788385775ba310407378f987e1";
    ]
    (incremental_run ())

let pack clauses =
  Array.concat (List.map (fun c -> Array.of_list (List.length c :: c)) clauses)

(* The packed and list entry points add the same clauses, reserved room
   leaves the search alone, and a shifted template equals the clauses
   shifted by hand. *)
let test_packed_and_reserved () =
  List.iter
    (fun (seed, nv, solver_seed, expect) ->
      let what = Printf.sprintf "seed=%d solver_seed=%#x" seed solver_seed in
      let packed = Solver.create ~seed:solver_seed () in
      Solver.reserve packed (8 * nv);
      Solver.ensure_vars packed nv;
      Solver.add_clauses packed (pack (random_3sat seed nv));
      Alcotest.(check string) (what ^ " packed, reserved") expect
        (trajectory packed (Solver.solve packed));
      let shift_by_hand = Solver.create ~seed:solver_seed () in
      Solver.ensure_vars shift_by_hand (2 * nv);
      List.iter
        (fun c ->
          Solver.add_clause shift_by_hand
            (List.map (fun l -> if l > 0 then l + nv else l - nv) c))
        (random_3sat seed nv);
      let shifted = Solver.create ~seed:solver_seed () in
      Solver.ensure_vars shifted (2 * nv);
      Solver.add_clauses ~shift:nv shifted (pack (random_3sat seed nv));
      Alcotest.(check string) (what ^ " shifted")
        (trajectory shift_by_hand (Solver.solve shift_by_hand))
        (trajectory shifted (Solver.solve shifted)))
    pinned_instances

(* The search itself allocates only the clauses it learns: at most 2
   minor words per propagation over the pinned instances. *)
let test_solve_allocation () =
  List.iter
    (fun (seed, nv, solver_seed, _) ->
      let s = fresh_instance seed nv solver_seed in
      let w0 = Gc.minor_words () in
      ignore (Solver.solve s);
      let words = Gc.minor_words () -. w0 in
      let props = (Solver.stats s).Solver.propagations in
      let per_prop = words /. float_of_int props in
      if per_prop > 2.0 then
        Alcotest.failf
          "seed=%d solver_seed=%#x: %.2f minor words per propagation" seed
          solver_seed per_prop)
    pinned_instances

let suite =
  [
    ("trivial sat", `Quick, test_trivial_sat);
    ("trivial unsat", `Quick, test_trivial_unsat);
    ("tautology and empty clause", `Quick, test_empty_clause_unsat);
    ("pigeonhole 3-2", `Quick, test_pigeonhole_3_2);
    ("assumptions", `Quick, test_assumptions);
    ("assumption zero refused", `Quick, test_assumption_zero);
    ("assumption out of range refused", `Quick, test_assumption_out_of_range);
    ("bad literals refused", `Quick, test_bad_literals);
    ("incremental", `Quick, test_incremental);
    ("budget returns", `Quick, test_budget_unknown);
    ("deadline returns unknown", `Quick, test_deadline);
    QCheck_alcotest.to_alcotest test_fuzz_vs_brute;
    ("conflicts counter", `Quick, test_conflicts_counter);
    ("pinned search trajectory", `Quick, test_pinned_trajectory);
    ("packed clauses and reserved room", `Quick, test_packed_and_reserved);
    ("solve allocation", `Quick, test_solve_allocation);
  ]
