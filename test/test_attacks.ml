(* Tests for shell_attacks: the SAT attack must break weak schemes and
   respect budgets; removal and proximity attacks behave as the threat
   model predicts. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module L = Shell_locking
module A = Shell_attacks
module Rng = Shell_util.Rng
module Obs = Shell_util.Obs

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

(* Run [f] with telemetry on, from zeroed metrics and no spans. *)
let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was;
      Obs.reset ())
    f

let obs_counter name =
  List.fold_left
    (fun acc (s : Obs.sample) ->
      match s.Obs.value with
      | Obs.Counter n when s.Obs.name = name -> n
      | _ -> acc)
    0 (Obs.snapshot ())

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
  while !first < 256 && chip (vec !first) = guess (vec !first) do
    incr first
  done;
  if !first = 256 then
    Alcotest.fail "the two designs agree on all 256 vectors of the replay";
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

(* The portfolio bench target's subject. On it the full race of
   [Portfolio.run] takes each decision path: at 64 DIPs racer 0 breaks,
   at 20 racer 1 is the first to break, at 8 no racer breaks. *)
let portfolio_subject =
  lazy
    (let nl = Shell_circuits.Axi_xbar.netlist ~channels:4 ~data_width:8 () in
     A.Attack.subject ~label:"xbar4/mux:32" ~original:nl
       (L.Schemes.mux_routing ~width:32 nl))

let portfolio_budget dips =
  A.Attack.budget ~max_dips:dips ~max_conflicts:60_000 ~time_limit:120.0 ()

(* a verdict as the battery renders its cell *)
let render_cell attack verdict =
  Shell_util.Jsonw.to_string
    (A.Battery.matrix_json
       {
         A.Battery.attacks = [ attack ];
         rows =
           [
             {
               A.Battery.subject = "s";
               scheme = "s";
               key_bits = 0;
               cells = [ { A.Battery.attack; verdict } ];
             };
           ];
       })

let test_unified_portfolio_parity () =
  (* the battery's "portfolio" decides in index order, yet renders as
     [best] of the full race with the race's winner in its detail, on
     every decision path *)
  let check label budget subject expected_winner =
    let p = A.Portfolio.run budget subject in
    Option.iter
      (fun w ->
        Alcotest.(check (option int))
          (label ^ ": race winner") w p.A.Portfolio.winner)
      expected_winner;
    let winner =
      ("winner", Option.value p.A.Portfolio.winner ~default:(-1))
    in
    let with_winner (st : A.Attack.stats) =
      { st with A.Attack.detail = winner :: st.A.Attack.detail }
    in
    let expected =
      match A.Portfolio.best p with
      | A.Attack.Broken (k, st) -> A.Attack.Broken (k, with_winner st)
      | A.Attack.Resilient st -> A.Attack.Resilient (with_winner st)
      | A.Attack.Inapplicable _ as v -> v
    in
    Alcotest.(check string)
      (label ^ ": attack = best (run)")
      (render_cell "portfolio" expected)
      (render_cell "portfolio" (A.Portfolio.attack.A.Attack.run budget subject))
  in
  let nl = victim 41 60 in
  check "xor:10" sat_budget
    (A.Attack.subject ~original:nl (L.Schemes.xor_keys ~bits:10 nl))
    None;
  List.iter
    (fun (dips, winner) ->
      check
        (Printf.sprintf "mux:32, %d dips" dips)
        (portfolio_budget dips)
        (Lazy.force portfolio_subject)
        (Some winner))
    [ (64, Some 0); (20, Some 1); (8, None) ]

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
  let nl = victim 42 80 in
  let lk = L.Schemes.xor_keys ~bits:8 nl in
  with_obs @@ fun () ->
  let dips =
    match
      A.Appsat.attack.A.Attack.run sat_budget (A.Attack.subject ~original:nl lk)
    with
    | A.Attack.Broken (_, st) | A.Attack.Resilient st -> st.A.Attack.iterations
    | A.Attack.Inapplicable why -> Alcotest.fail ("inapplicable: " ^ why)
  in
  let solver_calls = obs_counter "attack_dis_iterations" in
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

(* ---------------- searches shared within a battery run ------------- *)

let sat_and_portfolio () = List.filter_map A.Battery.find [ "sat"; "portfolio" ]

let render_matrix m = Shell_util.Jsonw.to_string (A.Battery.matrix_json m)

let test_battery_shares_sat_search () =
  (* the sat cell and portfolio racer 0 ask for one search, so a row
     runs it once, plus racers 1-3 when racer 0 did not break; the
     searches and the reuse count land under the battery span at any
     job count, whichever cell claims the search *)
  let s = Lazy.force portfolio_subject in
  with_obs @@ fun () ->
  let row ?attacks ~jobs dips =
    Obs.reset ();
    let budget = portfolio_budget dips in
    let m = A.Battery.run ~jobs ?attacks ~budget [ s ] in
    ( render_matrix m,
      obs_counter "attack_runs",
      Obs.span_aggregate (Obs.take_spans ()) )
  in
  List.iter
    (fun (order, dips, searches) ->
      let attacks = Option.map (List.filter_map A.Battery.find) order in
      let label what =
        Printf.sprintf "%s%d dips: %s"
          (match order with
          | None -> ""
          | Some names -> String.concat "," names ^ ", ")
          dips what
      in
      let m1, runs1, spans1 = row ?attacks ~jobs:1 dips in
      let m4, runs4, spans4 = row ?attacks ~jobs:4 dips in
      Alcotest.(check string) (label "matrix jobs 1 = jobs 4") m1 m4;
      Alcotest.(check int) (label "searches at jobs 1") searches runs1;
      Alcotest.(check int) (label "searches at jobs 4") searches runs4;
      Alcotest.(check (list (pair string int)))
        (label "spans jobs 1 = jobs 4") spans1 spans4;
      let span k = List.assoc_opt k spans1 in
      Alcotest.(check (option int))
        (label "searches under the battery span")
        (Some searches) (span "battery/sat_attack");
      Alcotest.(check (option int))
        (label "none under the sat cell") None
        (span "battery/attack.sat/sat_attack");
      Alcotest.(check (option int))
        (label "racers run") (Some searches)
        (span "battery/attack.portfolio/portfolio#racers_run");
      Alcotest.(check (option int))
        (label "racer 0's search shared") (Some 1)
        (span "battery#shared_searches"))
    [
      (None, 64, 1);
      (None, 8, 4);
      (* the portfolio first: racer 0 runs the search the sat cell
         then reuses *)
      (Some [ "portfolio"; "sat" ], 64, 1);
    ]

let test_battery_search_table_per_run () =
  (* one subject handed to two runs, as perfbench and the daemon do:
     the table dies with its run, so each run runs its own search *)
  let s = Lazy.force portfolio_subject in
  let budget = portfolio_budget 64 in
  with_obs @@ fun () ->
  let run () =
    let before = obs_counter "attack_runs" in
    let m = A.Battery.run ~attacks:(sat_and_portfolio ()) ~budget [ s ] in
    (render_matrix m, obs_counter "attack_runs" - before)
  in
  let m1, runs1 = run () in
  let m2, runs2 = run () in
  Alcotest.(check int) "first run: one search" 1 runs1;
  Alcotest.(check int) "second run: its own search" 1 runs2;
  Alcotest.(check string) "same row" m1 m2;
  Alcotest.(check bool) "the caller's subject carries no table" true
    (Option.is_none s.A.Attack.searches)

let test_shared_search_reopens () =
  (* a search that raises re-opens its key: a caller waiting on it runs
     the search itself, and raises again if that raises too, but never
     hangs *)
  let nl = victim 50 40 in
  let subject =
    A.Attack.subject ~original:nl (L.Schemes.xor_keys ~bits:4 nl)
  in
  let s = A.Attack.with_searches subject in
  let budget = A.Attack.budget () in
  let resilient =
    A.Attack.Resilient
      {
        A.Attack.iterations = 0;
        oracle_queries = 0;
        conflicts = 0;
        elapsed = 0.;
        key_bits = 4;
        recovered_bits = 0;
        detail = [];
      }
  in
  let claimed = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        match
          A.Attack.shared_search s ~solver_seed:0 budget (fun () ->
              Atomic.set claimed true;
              (* hold the key long enough for the waiter to queue *)
              let until = Shell_util.Clock.now () +. 0.05 in
              while Shell_util.Clock.now () < until do
                Domain.cpu_relax ()
              done;
              failwith "search failed")
        with
        | _ -> false
        | exception Failure _ -> true)
  in
  while not (Atomic.get claimed) do
    Domain.cpu_relax ()
  done;
  (* the waiter runs on its own domain, so a key that never re-opens
     fails the test at the deadline instead of hanging it *)
  let waited = Atomic.make None in
  let waiter =
    Domain.spawn (fun () ->
        Atomic.set waited
          (Some
             (A.Attack.shared_search s ~solver_seed:0 budget (fun () ->
                  resilient))))
  in
  let deadline = Shell_util.Clock.now () +. 30.0 in
  while Atomic.get waited = None && Shell_util.Clock.now () < deadline do
    Domain.cpu_relax ()
  done;
  let v =
    match Atomic.get waited with
    | Some v ->
        Domain.join waiter;
        v
    | None -> Alcotest.fail "the waiter hangs on a search that raised"
  in
  Alcotest.(check bool) "the claimer re-raised" true (Domain.join owner);
  Alcotest.(check bool) "the waiter ran the search" true (v == resilient);
  let v' =
    A.Attack.shared_search s ~solver_seed:0 budget (fun () ->
        Alcotest.fail "a landed search must not run again")
  in
  Alcotest.(check bool) "later callers reuse it" true (v' == v);
  (* two cells of a run whose searches both raise: the run re-raises *)
  let raising =
    {
      A.Attack.name = "raising";
      description = "a SAT search that raises";
      capabilities = [];
      run =
        (fun b s ->
          A.Attack.shared_search s ~solver_seed:0 b (fun () ->
              failwith "search failed"));
    }
  in
  List.iter
    (fun jobs ->
      match
        A.Battery.run ~jobs ~attacks:[ raising; raising ] ~budget [ subject ]
      with
      | _ -> Alcotest.fail "the run must re-raise"
      | exception Failure _ -> ())
    [ 1; 2; 4 ]

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
    ("battery shares the sat search", `Quick, test_battery_shares_sat_search);
    ("battery search table per run", `Quick, test_battery_search_table_per_run);
    ("shared search re-opens on raise", `Quick, test_shared_search_reopens);
    ("cycle blocks both vectors", `Quick, test_cycle_blocks_exclude_both_vectors);
  ]
