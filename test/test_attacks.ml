(* Tests for shell_attacks: the SAT attack must break weak schemes and
   respect budgets; removal and proximity attacks behave as the threat
   model predicts. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module L = Shell_locking
module A = Shell_attacks
module Rng = Shell_util.Rng

let victim seed n_gates =
  let rng = Rng.create seed in
  let nl = N.create "victim" in
  let pool =
    ref (Array.init 8 (fun i -> N.add_input nl (Printf.sprintf "i%d" i)))
  in
  for _ = 1 to n_gates do
    let a = Rng.choice rng !pool and b = Rng.choice rng !pool in
    let kinds = [| Cell.And; Cell.Or; Cell.Xor; Cell.Nand; Cell.Nor |] in
    let out = N.gate nl kinds.(Rng.int rng 5) [| a; b |] in
    pool := Array.append !pool [| out |]
  done;
  for i = 0 to 4 do
    N.add_output nl (Printf.sprintf "o%d" i) (!pool).(Array.length !pool - 1 - i)
  done;
  nl

let sat_budget =
  A.Attack.budget ~max_dips:128 ~max_conflicts:150_000 ~time_limit:20.0 ()

let attack ~original lk =
  A.Sat_attack.run sat_budget (A.Attack.subject ~original lk)

let expect_broken name verdict =
  match verdict with
  | A.Attack.Broken (_, _) -> ()
  | A.Attack.Resilient st ->
      Alcotest.fail
        (Printf.sprintf "%s should break (dips=%d conflicts=%d)" name
           st.A.Attack.iterations st.A.Attack.conflicts)
  | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)

let test_breaks_xor () =
  let nl = victim 1 80 in
  expect_broken "xor" (attack ~original:nl (L.Schemes.xor_keys ~bits:16 nl))

let test_breaks_random_lut () =
  let nl = victim 2 80 in
  expect_broken "random-lut"
    (attack ~original:nl (L.Schemes.random_lut ~gates:6 nl))

let test_breaks_heuristic_lut () =
  let nl = victim 3 80 in
  expect_broken "lut-lock"
    (attack ~original:nl (L.Schemes.heuristic_lut ~gates:6 nl))

let test_breaks_mux_routing () =
  let nl = victim 4 80 in
  expect_broken "full-lock"
    (attack ~original:nl (L.Schemes.mux_routing ~width:8 nl))

let test_recovered_key_functional () =
  let nl = victim 5 60 in
  let lk = L.Schemes.xor_keys ~bits:10 nl in
  match attack ~original:nl lk with
  | A.Attack.Broken (key, _) ->
      Alcotest.(check bool) "key unlocks" true
        (L.Locked.verify ~original:nl { lk with L.Locked.key = key })
  | _ -> Alcotest.fail "should break"

let test_budget_timeout () =
  let nl = victim 6 80 in
  let lk = L.Schemes.mux_lut ~width:16 nl in
  match
    A.Sat_attack.run
      (A.Attack.budget ~max_dips:1 ~max_conflicts:10 ~time_limit:0.001 ())
      (A.Attack.subject ~original:nl lk)
  with
  | A.Attack.Resilient _ | A.Attack.Broken _ -> ()
  | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)
(* a break within such a small budget is possible but unlikely; either
   way the call must return promptly *)

let test_attack_stats_populated () =
  let nl = victim 7 60 in
  let lk = L.Schemes.xor_keys ~bits:8 nl in
  match attack ~original:nl lk with
  | A.Attack.Broken (_, st) ->
      Alcotest.(check int) "key bits" 8 st.A.Attack.key_bits;
      Alcotest.(check int) "recovered = key bits" 8 st.A.Attack.recovered_bits;
      Alcotest.(check int) "one oracle query per DIP" st.A.Attack.iterations
        st.A.Attack.oracle_queries;
      Alcotest.(check bool) "solver decisions in detail" true
        (match List.assoc_opt "decisions" st.A.Attack.detail with
        | Some d -> d > 0
        | None -> false)
  | _ -> Alcotest.fail "should break"

let test_sequential_attack () =
  (* scan-model attack on a sequential victim *)
  let nl = victim 8 40 in
  let extra = N.dff nl (List.hd (List.map snd (N.outputs nl))) in
  N.add_output nl "state" extra;
  let lk = L.Schemes.xor_keys ~bits:8 nl in
  expect_broken "sequential xor" (attack ~original:nl lk)

let test_miter_unsat_without_keys () =
  (* a locked netlist with zero keys: find_dip must be `Unsat at once *)
  let nl = victim 9 30 in
  let m = A.Miter.create nl in
  (match A.Miter.find_dip m with
  | `Unsat -> ()
  | `Dip _ | `Budget -> Alcotest.fail "no keys, no DIP");
  Alcotest.(check int) "no keys" 0 (A.Miter.num_keys m)

let test_cycle_blocks_constrain () =
  (* blocking clauses must exclude the blocked patterns from both key
     vectors: craft one key bit and block value=true *)
  let nl = N.create "cb" in
  let a = N.add_input nl "a" in
  let k = N.add_key nl "k" in
  N.add_output nl "y" (N.xor_ nl a k);
  let m = A.Miter.create ~cycle_blocks:[ ([| 0 |], [| true |]) ] nl in
  (* with k=true excluded for both copies, no distinguishing input *)
  match A.Miter.find_dip m with
  | `Unsat -> ()
  | `Dip _ | `Budget -> Alcotest.fail "blocked keyspace should collapse"

let test_removal_true_guess () =
  let nl = victim 10 50 in
  let v = A.Removal.attempt ~oracle:(A.Attack.word_oracle nl) nl in
  Alcotest.(check bool) "true guess matches" true v.A.Removal.matched

let test_removal_wrong_guess () =
  let nl = victim 11 50 in
  let other = victim 12 50 in
  let v = A.Removal.attempt ~oracle:(A.Attack.word_oracle nl) other in
  Alcotest.(check bool) "wrong guess caught" false v.A.Removal.matched;
  (* 8 inputs: the scan is exhaustive in counting order, so it must stop
     at the first vector a scalar replay finds the two designs
     disagreeing on *)
  let chip = A.Attack.oracle nl and guess = A.Attack.oracle other in
  let vec n = Array.init 8 (fun i -> (n lsr i) land 1 = 1) in
  let first = ref 0 in
  while chip (vec !first) = guess (vec !first) do
    incr first
  done;
  Alcotest.(check int) "vectors tried up to the first miscompare"
    (!first + 1) v.A.Removal.vectors_tried;
  Alcotest.(check (option (array bool))) "earliest counterexample"
    (Some (vec !first)) v.A.Removal.first_mismatch

let test_proximity_reports () =
  let nl = victim 13 100 in
  let lk = L.Schemes.mux_routing ~width:8 nl in
  let r = A.Proximity.run lk in
  Alcotest.(check bool) "attacked some bits" true (r.A.Proximity.attacked_bits > 0);
  Alcotest.(check bool) "accuracy in range" true
    (r.A.Proximity.accuracy >= 0.0 && r.A.Proximity.accuracy <= 1.0)

let test_proximity_no_muxes () =
  let nl = victim 14 40 in
  let lk = L.Schemes.xor_keys ~bits:6 nl in
  let r = A.Proximity.run lk in
  Alcotest.(check int) "xor keys not attackable" 0 r.A.Proximity.attacked_bits

let test_link_prediction_reports () =
  let nl = victim 30 120 in
  let lk = L.Schemes.mux_routing ~width:8 nl in
  let r = A.Proximity.predict_links lk in
  Alcotest.(check bool) "finds boundary links" true (r.A.Proximity.links > 0);
  Alcotest.(check bool) "accuracy in range" true
    (r.A.Proximity.link_accuracy >= 0.0 && r.A.Proximity.link_accuracy <= 1.0);
  (* cyclic locked netlists are skipped, not crashed *)
  let mapped = fst (Shell_synth.Lut_map.map ~k:4 (victim 31 60)) in
  let e = Shell_fabric.Emit.emit ~style:Shell_fabric.Style.Openfpga mapped in
  let cyclic_lk =
    {
      L.Locked.locked = e.Shell_fabric.Emit.locked;
      key = Shell_fabric.Bitstream.bits e.Shell_fabric.Emit.bitstream;
      scheme = "efpga";
    }
  in
  let r2 = A.Proximity.predict_links cyclic_lk in
  Alcotest.(check int) "cyclic skipped" 0 r2.A.Proximity.links

(* ---------------- battery forms ---------------- *)

let test_unified_removal_parity () =
  (* the battery's "removal" is Broken exactly when one of its two
     constant-key specializations passes [attempt] AND verifies *)
  let nl = victim 40 60 in
  let lk = L.Schemes.mux_routing ~width:8 nl in
  let oracle = A.Attack.word_oracle nl in
  let expected =
    List.exists
      (fun key ->
        let cand = L.Locked.apply_key lk key in
        (not (N.has_comb_cycle cand))
        && (A.Removal.attempt ~oracle cand).A.Removal.matched
        && L.Locked.verify ~original:nl { lk with L.Locked.key })
      [
        Array.make (L.Locked.key_bits lk) false;
        Array.make (L.Locked.key_bits lk) true;
      ]
  in
  let unified =
    A.Removal.attack.A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original:nl lk)
  in
  let got = match unified with A.Attack.Broken _ -> true | _ -> false in
  Alcotest.(check bool) "removal verdict matches attempt" expected got

let test_unified_proximity_parity () =
  (* the battery's "proximity" must report [Proximity.run]'s counters in
     its stats detail *)
  let nl = victim 13 100 in
  let lk = L.Schemes.mux_routing ~width:8 nl in
  let r = A.Proximity.run lk in
  let unified =
    A.Proximity.attack.A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original:nl lk)
  in
  let st =
    match unified with
    | A.Attack.Broken (_, st) | A.Attack.Resilient st -> st
    | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)
  in
  Alcotest.(check (option int))
    "attacked bits" (Some r.A.Proximity.attacked_bits)
    (List.assoc_opt "attacked_bits" st.A.Attack.detail);
  Alcotest.(check (option int))
    "correct bits" (Some r.A.Proximity.correct)
    (List.assoc_opt "correct" st.A.Attack.detail)

let test_unified_portfolio_parity () =
  (* the battery's "portfolio" = deterministic race + best, with the
     race's winner in its detail *)
  let nl = victim 41 60 in
  let lk = L.Schemes.xor_keys ~bits:10 nl in
  let subject = A.Attack.subject ~original:nl lk in
  let p = A.Portfolio.run sat_budget subject in
  let unified = A.Portfolio.attack.A.Attack.run sat_budget subject in
  match (A.Portfolio.best p, unified) with
  | A.Attack.Broken (k1, _), A.Attack.Broken (k2, ust) ->
      Alcotest.(check (array bool)) "same key" k1 k2;
      Alcotest.(check (option int))
        "winner index in detail"
        (Some (match p.A.Portfolio.winner with Some i -> i | None -> -1))
        (List.assoc_opt "winner" ust.A.Attack.detail)
  | A.Attack.Resilient _, A.Attack.Resilient _ -> ()
  | _ -> Alcotest.fail "portfolio verdicts disagree"

(* ---------------- new attacks ---------------- *)

let test_appsat_breaks_xor () =
  (* acceptance: on a low-key-bit scheme the exact attack breaks, the
     approximate attack must break it too *)
  let nl = victim 42 80 in
  let lk = L.Schemes.xor_keys ~bits:8 nl in
  expect_broken "exact sat on xor:8" (attack ~original:nl lk);
  match
    A.Appsat.attack.A.Attack.run sat_budget (A.Attack.subject ~original:nl lk)
  with
  | A.Attack.Broken (key, _) ->
      Alcotest.(check bool) "appsat key unlocks" true
        (L.Locked.verify ~original:nl { lk with L.Locked.key = key })
  | A.Attack.Resilient _ -> Alcotest.fail "appsat should break xor:8"
  | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)

let test_appsat_dips_instrumented () =
  (* AppSAT runs on the SAT attack's DIP loop, so each of its solver
     calls counts in attack_dis_iterations and opens an appsat/dip span
     just like the exact attack's *)
  let module Obs = Shell_util.Obs in
  let nl = victim 42 80 in
  let lk = L.Schemes.xor_keys ~bits:8 nl in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled was;
      Obs.reset ())
  @@ fun () ->
  let dips =
    match
      A.Appsat.attack.A.Attack.run sat_budget (A.Attack.subject ~original:nl lk)
    with
    | A.Attack.Broken (_, st) | A.Attack.Resilient st -> st.A.Attack.iterations
    | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)
  in
  let solver_calls =
    List.fold_left
      (fun acc (s : Obs.sample) ->
        match s.Obs.value with
        | Obs.Counter n when s.Obs.name = "attack_dis_iterations" -> n
        | _ -> acc)
      0 (Obs.snapshot ())
  in
  let agg = Obs.span_aggregate (Obs.spans ()) in
  Alcotest.(check bool) "some DIPs" true (dips > 0);
  Alcotest.(check bool) "a solver call per DIP at least" true
    (solver_calls >= dips);
  Alcotest.(check (option int)) "one dip span per solver call"
    (Some solver_calls) (List.assoc_opt "appsat/dip" agg);
  Alcotest.(check (option int)) "dips on the appsat span" (Some dips)
    (List.assoc_opt "appsat#dips" agg)

let test_brute_force_small_key () =
  let nl = victim 43 60 in
  let lk = L.Schemes.xor_keys ~bits:8 nl in
  match
    A.Brute_force.attack.A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original:nl lk)
  with
  | A.Attack.Broken (key, _) ->
      Alcotest.(check bool) "brute key unlocks" true
        (L.Locked.verify ~original:nl { lk with L.Locked.key = key })
  | _ -> Alcotest.fail "brute force should break an 8-bit key"

let test_brute_force_wide_key_inapplicable () =
  let nl = victim 44 80 in
  let lk = L.Schemes.xor_keys ~bits:24 nl in
  match
    A.Brute_force.attack.A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original:nl lk)
  with
  | A.Attack.Inapplicable _ -> ()
  | _ -> Alcotest.fail "24-bit key must be out of brute-force range"

let test_sensitize_breaks_xor () =
  let nl = victim 45 80 in
  let lk = L.Schemes.xor_keys ~bits:8 nl in
  match
    A.Sensitize.attack.A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original:nl lk)
  with
  | A.Attack.Broken (key, _) ->
      Alcotest.(check bool) "sensitize key unlocks" true
        (L.Locked.verify ~original:nl { lk with L.Locked.key = key })
  | _ -> Alcotest.fail "sensitization should break xor keying"

let test_structural_free_bits () =
  (* acceptance fixture: one dead key bit (reaches no output) and one
     constant-blocked bit (wired through a const-0 AND) — the structural
     attack must prove both free and recover a working key *)
  let original = N.create "fix" in
  let a = N.add_input original "a" in
  let b = N.add_input original "b" in
  N.add_output original "y" (N.and_ original a b);
  let locked = N.create "fix" in
  let a = N.add_input locked "a" in
  let b = N.add_input locked "b" in
  let k0 = N.add_key locked "k0" in
  let k1 = N.add_key locked "k1" in
  ignore (N.and_ locked a k0) (* dead: dangling gate, no output cone *);
  let blocked = N.and_ locked k1 (N.const locked false) in
  N.add_output locked "y" (N.or_ locked (N.and_ locked a b) blocked);
  let lk = { L.Locked.locked; key = [| true; true |]; scheme = "fixture" } in
  assert (L.Locked.verify ~original lk);
  match
    A.Structural.attack.A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original lk)
  with
  | A.Attack.Broken (key, st) ->
      Alcotest.(check int) "both bits recovered" 2 st.A.Attack.recovered_bits;
      Alcotest.(check (option int)) "one dead" (Some 1)
        (List.assoc_opt "dead" st.A.Attack.detail);
      Alcotest.(check (option int)) "one blocked" (Some 1)
        (List.assoc_opt "blocked" st.A.Attack.detail);
      Alcotest.(check bool) "recovered key unlocks" true
        (L.Locked.verify ~original { lk with L.Locked.key = key })
  | _ -> Alcotest.fail "free key bits should break the fixture"

let test_structural_live_resilient () =
  let nl = victim 46 60 in
  let lk = L.Schemes.xor_keys ~bits:6 nl in
  match
    A.Structural.attack.A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original:nl lk)
  with
  | A.Attack.Resilient st ->
      (* some bits may fall on dangling nets (dead), but at least one
         is live — so the attack must NOT declare the key free *)
      Alcotest.(check bool) "some bits live" true
        (st.A.Attack.recovered_bits < st.A.Attack.key_bits);
      Alcotest.(check (option int)) "live = total - free"
        (Some (st.A.Attack.key_bits - st.A.Attack.recovered_bits))
        (List.assoc_opt "live" st.A.Attack.detail)
  | _ -> Alcotest.fail "live xor keys must not be declared free"

(* ---------------- oracle-less: redundancy + scope ---------------- *)

(* Known-breakable XOR-locked fixture: the key is XORed into the
   datapath (k0 through an XNOR, correct 1; k1 through an XOR, correct
   0), but each bit also feeds a side gadget (s0 = a AND k0,
   s1 = b OR k1) whose wrong pinning degenerates to a constant. The
   pure XOR part leaks nothing to constant propagation; the gadgets
   decide every bit, so both oracle-less attacks must assemble the
   exact key and verify it. *)
let xor_gadget_fixture () =
  let original = N.create "xg" in
  let a = N.add_input original "a" in
  let b = N.add_input original "b" in
  let c = N.add_input original "c" in
  N.add_output original "y" (N.xor_ original (N.and_ original a b) c);
  N.add_output original "s0" a;
  N.add_output original "s1" b;
  let locked = N.create "xg" in
  let a = N.add_input locked "a" in
  let b = N.add_input locked "b" in
  let c = N.add_input locked "c" in
  let k0 = N.add_key locked "k0" in
  let k1 = N.add_key locked "k1" in
  let t = N.xor_ locked (N.and_ locked a b) c in
  N.add_output locked "y" (N.xor_ locked (N.xnor_ locked t k0) k1);
  N.add_output locked "s0" (N.and_ locked a k0);
  N.add_output locked "s1" (N.or_ locked b k1);
  let lk =
    { L.Locked.locked; key = [| true; false |]; scheme = "xor-gadget" }
  in
  assert (L.Locked.verify ~original lk);
  (original, lk)

(* Resilient mux-locked fixture: each key bit swaps a pair of shared,
   multiply-read wires between two outputs. Pinning a select either
   way masks one arm per mux, but every wire stays observable through
   the sibling mux, so no live cell dies and no constant is proven:
   both pinnings score identically and every bit stays undecided. The
   correct key is deliberately not all-false, so a blind default guess
   could never pass verification either. *)
let mux_swap_fixture () =
  let original = N.create "ms" in
  let a = N.add_input original "a" in
  let b = N.add_input original "b" in
  N.add_output original "y0" (N.and_ original a b);
  N.add_output original "y1" (N.or_ original a b);
  N.add_output original "y2" (N.xor_ original a b);
  N.add_output original "y3" (N.xnor_ original a b);
  let locked = N.create "ms" in
  let a = N.add_input locked "a" in
  let b = N.add_input locked "b" in
  let k0 = N.add_key locked "k0" in
  let k1 = N.add_key locked "k1" in
  let w_and = N.and_ locked a b in
  let w_or = N.or_ locked a b in
  let w_xor = N.xor_ locked a b in
  let w_xnor = N.xnor_ locked a b in
  N.add_output locked "y0" (N.mux2 locked ~sel:k0 ~a:w_and ~b:w_or);
  N.add_output locked "y1" (N.mux2 locked ~sel:k0 ~a:w_or ~b:w_and);
  (* swapped pair: correct k1 = 1 *)
  N.add_output locked "y2" (N.mux2 locked ~sel:k1 ~a:w_xnor ~b:w_xor);
  N.add_output locked "y3" (N.mux2 locked ~sel:k1 ~a:w_xor ~b:w_xnor);
  let lk =
    { L.Locked.locked; key = [| false; true |]; scheme = "mux-swap" }
  in
  assert (L.Locked.verify ~original lk);
  (original, lk)

let run_oracle_less name (original, lk) =
  match A.Battery.find name with
  | None -> Alcotest.fail (name ^ " not registered")
  | Some atk ->
      atk.A.Attack.run (A.Attack.budget ()) (A.Attack.subject ~original lk)

let check_breaks name fixture =
  match run_oracle_less name fixture with
  | A.Attack.Broken (key, st) ->
      let _, lk = fixture in
      Alcotest.(check (array bool)) (name ^ " exact key") lk.L.Locked.key key;
      Alcotest.(check int)
        (name ^ " all bits decided")
        st.A.Attack.key_bits st.A.Attack.recovered_bits
  | A.Attack.Resilient st ->
      Alcotest.fail
        (Printf.sprintf "%s should break the gadget fixture (decided=%d)" name
           st.A.Attack.recovered_bits)
  | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)

let check_resilient name fixture =
  match run_oracle_less name fixture with
  | A.Attack.Resilient st ->
      Alcotest.(check (option int)) (name ^ " nothing decided") (Some 0)
        (List.assoc_opt "decided" st.A.Attack.detail);
      (* resilient by silence, not by a failed gamble *)
      Alcotest.(check (option int)) (name ^ " no failed verify") None
        (List.assoc_opt "verify_failed" st.A.Attack.detail)
  | A.Attack.Broken _ -> Alcotest.fail (name ^ " must not break the mux swap")
  | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)

let test_redundancy_breaks_gadget () =
  check_breaks "redundancy" (xor_gadget_fixture ())

let test_redundancy_resilient_mux () =
  check_resilient "redundancy" (mux_swap_fixture ())

let test_scope_breaks_gadget () = check_breaks "scope" (xor_gadget_fixture ())
let test_scope_resilient_mux () = check_resilient "scope" (mux_swap_fixture ())

let test_scope_efpga_bitstream_keys () =
  (* the scoring must see through Config_latch cells: an eFPGA-emitted
     locked netlist hides its key behind the configuration plane, and a
     scope run on it must still examine every bit (and stay quiet on
     the symmetric LUT/routing planes rather than crash or break) *)
  let mapped = fst (Shell_synth.Lut_map.map ~k:4 (victim 53 50)) in
  let e = Shell_fabric.Emit.emit ~style:Shell_fabric.Style.Fabulous_std mapped in
  let lk =
    {
      L.Locked.locked = e.Shell_fabric.Emit.locked;
      key = Shell_fabric.Bitstream.bits e.Shell_fabric.Emit.bitstream;
      scheme = "efpga";
    }
  in
  match
    (A.Scope.attack).A.Attack.run (A.Attack.budget ())
      (A.Attack.subject ~original:mapped lk)
  with
  | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)
  | A.Attack.Broken (key, _) ->
      Alcotest.(check bool) "a broken verdict must be verified" true
        (L.Locked.verify ~original:mapped { lk with L.Locked.key = key })
  | A.Attack.Resilient st ->
      Alcotest.(check int) "every bit examined"
        (L.Locked.key_bits lk) st.A.Attack.iterations

(* ---------------- battery engine ---------------- *)

let test_battery_registry () =
  Alcotest.(check bool) "sat registered" true (A.Battery.find "sat" <> None);
  Alcotest.(check bool) "unknown not found" true
    (A.Battery.find "nope" = None);
  let names = A.Battery.names () in
  Alcotest.(check int) "ten attacks" 10 (List.length names);
  Alcotest.(check bool) "redundancy registered" true
    (List.mem "redundancy" names);
  Alcotest.(check bool) "scope registered" true (List.mem "scope" names);
  Alcotest.(check bool) "names unique" true
    (List.length (List.sort_uniq compare names) = List.length names)

let test_battery_jobs_identical () =
  (* the matrix JSON must be byte-identical at any job count (cheap,
     solver-free attacks keep the test fast) *)
  let subjects =
    List.map
      (fun (seed, mk) ->
        let nl = victim seed 60 in
        A.Attack.subject ~original:nl (mk nl))
      [
        (47, fun nl -> L.Schemes.xor_keys ~bits:8 nl);
        (48, fun nl -> L.Schemes.mux_routing ~width:8 nl);
      ]
  in
  let attacks =
    List.filter_map A.Battery.find
      [
        "brute";
        "sensitize";
        "structural";
        "redundancy";
        "scope";
        "removal";
        "proximity";
      ]
  in
  let budget = A.Attack.budget () in
  let render jobs =
    Shell_util.Jsonw.to_string ~indent:2
      (A.Battery.matrix_json (A.Battery.run ~jobs ~attacks ~budget subjects))
  in
  Alcotest.(check string) "jobs 1 = jobs 4" (render 1) (render 4)

let test_battery_rows_and_cells () =
  let nl = victim 49 50 in
  let lk = L.Schemes.xor_keys ~bits:4 nl in
  let attacks = List.filter_map A.Battery.find [ "brute"; "structural" ] in
  let m =
    A.Battery.run ~jobs:1 ~attacks ~budget:(A.Attack.budget ())
      [ A.Attack.subject ~label:"v49" ~original:nl lk ]
  in
  Alcotest.(check (list string)) "column order" [ "brute"; "structural" ]
    m.A.Battery.attacks;
  match m.A.Battery.rows with
  | [ row ] ->
      Alcotest.(check string) "label" "v49" row.A.Battery.subject;
      Alcotest.(check int) "key bits" 4 row.A.Battery.key_bits;
      Alcotest.(check (list string)) "cells in registry order"
        [ "brute"; "structural" ]
        (List.map (fun (c : A.Battery.cell) -> c.A.Battery.attack)
           row.A.Battery.cells)
  | rows ->
      Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows))

(* The battery bytes of every registered attack, pinned: one row per
   scheme on a 4-channel crossbar under a cap-bound budget, checked
   against the MD5s of the rows' stable JSON (the same digests the
   benchmark's battery workload checks). The pool runs at the default
   job count, so running the suite at different SHELL_JOBS also checks
   that the rows do not depend on it. *)
let test_battery_pinned_rows () =
  let nl = Shell_circuits.Axi_xbar.netlist ~channels:4 ~data_width:8 () in
  let budget =
    A.Attack.budget ~max_dips:32 ~max_conflicts:60_000 ~time_limit:120.0
      ~vectors:256 ()
  in
  List.iter
    (fun (scheme, md5) ->
      let lk =
        match Shell_serve.Jobs.locked_of_spec ~seed:1 nl scheme with
        | Ok lk -> lk
        | Error d -> Alcotest.fail (Shell_util.Diag.to_string d)
      in
      let label = Printf.sprintf "xbar4/%s@1" scheme in
      let m =
        A.Battery.run ~budget [ A.Attack.subject ~label ~original:nl lk ]
      in
      Alcotest.(check string) label md5
        (Digest.to_hex
           (Digest.string
              (Shell_util.Jsonw.to_string (A.Battery.matrix_json m)))))
    [
      ("xor:8", "a6cf189372c708c82abb4887f51f6908");
      ("mux:8", "63468bcb50aa7277d3f89be8f391843b");
      ("rlut:4", "f9feadb6ecca33fa44a9b33bc9c3c751");
      ("hlut:4", "97f89307715f9db84681874777bc0592");
      ("muxlut:8", "b0d51d00ae15414bc78587b996232dcb");
    ]

(* ---------------- miter cycle blocks, both key vectors ------------- *)

let test_cycle_blocks_exclude_both_vectors () =
  (* y = a xor (k0 & k1): without blocks the miter distinguishes key 11
     from key 00. Blocking pattern (k0,k1)=(1,1) must remove it from
     BOTH key vectors — a single-sided encoding would still find the
     DIP with copy A at 11 and copy B at 00 *)
  let nl = N.create "cb2" in
  let a = N.add_input nl "a" in
  let k0 = N.add_key nl "k0" in
  let k1 = N.add_key nl "k1" in
  N.add_output nl "y" (N.xor_ nl a (N.and_ nl k0 k1));
  (match A.Miter.find_dip (A.Miter.create nl) with
  | `Dip _ -> ()
  | `Unsat | `Budget -> Alcotest.fail "unblocked miter must find a DIP");
  let m = A.Miter.create ~cycle_blocks:[ ([| 0; 1 |], [| true; true |]) ] nl in
  (match A.Miter.find_dip m with
  | `Unsat -> ()
  | `Dip _ | `Budget -> Alcotest.fail "blocked pattern leaked into a key copy");
  match A.Miter.extract_key m with
  | Some key ->
      Alcotest.(check bool) "extracted key avoids the blocked pattern" false
        (key.(0) && key.(1))
  | None -> Alcotest.fail "a consistent key must exist"

let test_metrics () =
  let nl = victim 20 60 in
  let lk = L.Schemes.random_lut ~gates:5 nl in
  let m = A.Metrics.of_locked lk.L.Locked.locked in
  Alcotest.(check int) "key bits" (L.Locked.key_bits lk) m.A.Metrics.key_bits;
  Alcotest.(check bool) "c2v sane" true
    (m.A.Metrics.c2v > 1.0 && m.A.Metrics.c2v < 10.0);
  Alcotest.(check int) "no cycle blocks" 0 m.A.Metrics.cycle_blocked_patterns

let test_metrics_bitstream_split () =
  let mapped =
    let nl = victim 21 50 in
    fst (Shell_synth.Lut_map.map ~k:4 nl)
  in
  let e = Shell_fabric.Emit.emit ~style:Shell_fabric.Style.Fabulous_std mapped in
  let m =
    A.Metrics.of_locked
      ~bitstream:e.Shell_fabric.Emit.bitstream
      e.Shell_fabric.Emit.locked
  in
  Alcotest.(check int) "split covers all bits" m.A.Metrics.key_bits
    (m.A.Metrics.table_bits + m.A.Metrics.routing_bits);
  Alcotest.(check bool) "has table bits" true (m.A.Metrics.table_bits > 0);
  Alcotest.(check bool) "has routing bits" true (m.A.Metrics.routing_bits > 0)

let suite =
  [
    ("breaks xor", `Quick, test_breaks_xor);
    ("breaks random lut", `Quick, test_breaks_random_lut);
    ("breaks heuristic lut", `Quick, test_breaks_heuristic_lut);
    ("breaks mux routing", `Quick, test_breaks_mux_routing);
    ("recovered key functional", `Quick, test_recovered_key_functional);
    ("budget timeout", `Quick, test_budget_timeout);
    ("attack stats", `Quick, test_attack_stats_populated);
    ("sequential attack", `Quick, test_sequential_attack);
    ("miter without keys", `Quick, test_miter_unsat_without_keys);
    ("cycle blocks constrain", `Quick, test_cycle_blocks_constrain);
    ("removal true guess", `Quick, test_removal_true_guess);
    ("removal wrong guess", `Quick, test_removal_wrong_guess);
    ("proximity reports", `Quick, test_proximity_reports);
    ("proximity ignores non-mux keys", `Quick, test_proximity_no_muxes);
    ("link prediction reports", `Quick, test_link_prediction_reports);
    ("metrics", `Quick, test_metrics);
    ("metrics bitstream split", `Quick, test_metrics_bitstream_split);
    ("unified removal parity", `Quick, test_unified_removal_parity);
    ("unified proximity parity", `Quick, test_unified_proximity_parity);
    ("unified portfolio parity", `Quick, test_unified_portfolio_parity);
    ("appsat breaks xor", `Quick, test_appsat_breaks_xor);
    ("appsat dips instrumented", `Quick, test_appsat_dips_instrumented);
    ("brute force small key", `Quick, test_brute_force_small_key);
    ("brute force wide key n/a", `Quick, test_brute_force_wide_key_inapplicable);
    ("sensitize breaks xor", `Quick, test_sensitize_breaks_xor);
    ("structural free bits", `Quick, test_structural_free_bits);
    ("structural live resilient", `Quick, test_structural_live_resilient);
    ("redundancy breaks gadget", `Quick, test_redundancy_breaks_gadget);
    ("redundancy resilient mux", `Quick, test_redundancy_resilient_mux);
    ("scope breaks gadget", `Quick, test_scope_breaks_gadget);
    ("scope resilient mux", `Quick, test_scope_resilient_mux);
    ("scope efpga bitstream keys", `Quick, test_scope_efpga_bitstream_keys);
    ("battery registry", `Quick, test_battery_registry);
    ("battery jobs identical", `Quick, test_battery_jobs_identical);
    ("battery rows and cells", `Quick, test_battery_rows_and_cells);
    ("battery pinned xbar4 rows", `Quick, test_battery_pinned_rows);
    ("cycle blocks both vectors", `Quick, test_cycle_blocks_exclude_both_vectors);
  ]
