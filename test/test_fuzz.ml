(* The differential fuzzing subsystem: generator validity and
   determinism, fault injection, the shrinker, the campaign runner's
   jobs-independence, and the mutation-injection self-test. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Verilog = Shell_netlist.Verilog
module Rng = Shell_util.Rng
module Gen = Shell_fuzz.Gen
module Inject = Shell_fuzz.Inject
module Shrink = Shell_fuzz.Shrink
module Oracles = Shell_fuzz.Oracles
module Runner = Shell_fuzz.Runner

let valid nl = match N.validate nl with Ok () -> true | Error _ -> false

let gen_case seed =
  let rng = Rng.create seed in
  let shape = Gen.random_shape rng in
  (shape, Gen.netlist rng shape)

(* ---------------- generator ---------------- *)

let test_gen_valid_and_deterministic () =
  for seed = 1000 to 1019 do
    let _, a = gen_case seed and _, b = gen_case seed in
    Alcotest.(check bool) "validates" true (valid a);
    Alcotest.(check bool)
      "comb view acyclic" false
      (N.has_comb_cycle (N.comb_view a));
    Alcotest.(check string) "deterministic" (N.fingerprint a) (N.fingerprint b)
  done

let test_gen_covers_shapes () =
  (* over a modest sample, every structural knob must fire *)
  let luts = ref false
  and muxes = ref false
  and dffs = ref false
  and keyed = ref false
  and multi = ref false
  and nnames = ref false in
  for seed = 0 to 99 do
    let s, _ = gen_case seed in
    if s.Gen.with_luts then luts := true;
    if s.Gen.with_muxes then muxes := true;
    if s.Gen.with_dffs then dffs := true;
    if s.Gen.key_bits > 0 then keyed := true;
    if s.Gen.blocks > 1 then multi := true;
    if s.Gen.adversarial_names then nnames := true
  done;
  List.iter
    (fun (nm, b) -> Alcotest.(check bool) nm true b)
    [
      ("luts", !luts);
      ("muxes", !muxes);
      ("dffs", !dffs);
      ("keys", !keyed);
      ("multi-block", !multi);
      ("adversarial names", !nnames);
    ]

(* ---------------- injection ---------------- *)

let test_inject_produces_distinct_valid_mutant () =
  let hits = ref 0 in
  for seed = 0 to 19 do
    let _, nl = gen_case seed in
    let rng = Rng.create (7000 + seed) in
    match Inject.mutate rng nl with
    | None -> ()
    | Some m ->
        incr hits;
        Alcotest.(check bool) "mutant validates" true (valid m.Inject.netlist);
        Alcotest.(check bool)
          "structurally distinct" false
          (N.fingerprint nl = N.fingerprint m.Inject.netlist)
  done;
  Alcotest.(check bool) "mutations were produced" true (!hits >= 15)

(* ---------------- shrinker ---------------- *)

let test_shrink_minimizes () =
  (* predicate: the netlist still contains an Xor cell. A chain of
     irrelevant gates around one Xor must shrink down to (almost)
     just the Xor. *)
  let nl = N.create "shrinkme" in
  let a = N.add_input nl "a" and b = N.add_input nl "b" in
  let t = ref a in
  for _ = 1 to 10 do
    t := N.and_ nl !t b
  done;
  let x = N.xor_ nl !t b in
  let noise = N.or_ nl x a in
  N.add_output nl "y" x;
  N.add_output nl "noise" noise;
  let failing n =
    N.count_kind n (function Cell.Xor -> true | _ -> false) > 0
  in
  let small, st = Shrink.minimize ~failing nl in
  Alcotest.(check bool) "still failing" true (failing small);
  Alcotest.(check bool) "valid" true (valid small);
  Alcotest.(check bool)
    "shrank"
    true
    (N.num_cells small < N.num_cells nl);
  Alcotest.(check bool) "few cells remain" true (N.num_cells small <= 3);
  Alcotest.(check int) "stats before" 12 st.Shrink.cells_before

let test_shrink_rejects_passing_input () =
  let nl = N.create "ok" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.buf nl a);
  match Shrink.minimize ~failing:(fun _ -> false) nl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "minimize accepted a passing netlist"

(* ---------------- runner ---------------- *)

let test_clean_run () =
  let r = Runner.run ~jobs:2 ~seed:123 ~cases:40 () in
  Alcotest.(check bool) "no failures" true (Runner.ok r);
  Alcotest.(check int) "all oracles reported" (List.length Oracles.all)
    (List.length r.Runner.stats);
  let checks =
    List.fold_left
      (fun acc s -> acc + s.Runner.passed + s.Runner.failed)
      0 r.Runner.stats
  in
  Alcotest.(check bool) "oracles actually ran" true (checks > 100)

(* The runner draws each oracle's RNG streams from its [stream]
   number, so two oracles sharing one would see the same draws; 10
   belonged to the retired VCD oracle and stays unused. *)
let test_streams_distinct () =
  let streams = List.map (fun (o : Oracles.t) -> o.Oracles.stream) Oracles.all in
  Alcotest.(check int) "no stream shared"
    (List.length streams)
    (List.length (List.sort_uniq compare streams));
  Alcotest.(check bool) "retired stream unused" false (List.mem 10 streams)

let test_run_jobs_independent () =
  let render r = Format.asprintf "%a" Runner.pp_report r in
  let a = Runner.run ~jobs:1 ~seed:99 ~cases:25 () in
  let b = Runner.run ~jobs:4 ~seed:99 ~cases:25 () in
  Alcotest.(check string) "report byte-identical across jobs" (render a)
    (render b)

(* Naming an oracle twice runs it once: [[o; o]] reports what [[o]]
   does, in the campaign and in the self-test. *)
let test_repeated_oracle_runs_once () =
  let o = Option.get (Oracles.find "opt") in
  let render r = Format.asprintf "%a" Runner.pp_report r in
  let once = Runner.run ~jobs:1 ~oracles:[ o ] ~shrink:false ~seed:1 ~cases:10 () in
  let twice =
    Runner.run ~jobs:1 ~oracles:[ o; o ] ~shrink:false ~seed:1 ~cases:10 ()
  in
  Alcotest.(check string) "campaign report" (render once) (render twice);
  Alcotest.(check int) "one row" 1 (List.length twice.Runner.stats);
  let render_self stats = Format.asprintf "%a" Runner.pp_self_test stats in
  Alcotest.(check string) "self-test report"
    (render_self (Runner.self_test ~jobs:1 ~oracles:[ o ] ~seed:1 ~cases:10 ()))
    (render_self (Runner.self_test ~jobs:1 ~oracles:[ o; o ] ~seed:1 ~cases:10 ()))

(* an always-failing oracle drives the failure path: shrinking plus
   reproducer emission, which must itself reparse *)
let bogus =
  {
    Oracles.name = "bogus";
    stream = 13;
    description = "fails whenever the netlist has a cell";
    applies = (fun _ -> true);
    run =
      (fun _ nl ->
        if N.num_cells nl > 0 then Oracles.Fail "has cells" else Oracles.Pass);
    inject = (fun _ _ -> None);
  }

let test_failure_shrinks_and_writes_reproducer () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "shell_fuzz_test" in
  let r =
    Runner.run ~jobs:1 ~oracles:[ bogus ] ~shrink:true ~out_dir:dir ~seed:3
      ~cases:2 ()
  in
  Alcotest.(check bool) "reported failures" false (Runner.ok r);
  Alcotest.(check int) "one failure per case" 2 (List.length r.Runner.failures);
  List.iter
    (fun (f : Runner.failure) ->
      (match f.Runner.shrink with
      | None -> Alcotest.fail "failure was not shrunk"
      | Some st ->
          Alcotest.(check bool)
            "shrunk no larger" true
            (st.Shrink.cells_after <= st.Shrink.cells_before));
      match f.Runner.reproducer with
      | None -> Alcotest.fail "no reproducer written"
      | Some path ->
          Alcotest.(check bool) "file exists" true (Sys.file_exists path);
          let ic = open_in path in
          let len = in_channel_length ic in
          let src = really_input_string ic len in
          close_in ic;
          let nl = Verilog.parse src in
          Alcotest.(check bool) "reproducer reparses" true (valid nl))
    r.Runner.failures

let test_self_test_every_oracle_catches () =
  let stats = Runner.self_test ~jobs:2 ~seed:17 ~cases:80 () in
  List.iter
    (fun (s : Runner.self_stat) ->
      Alcotest.(check bool)
        (s.Runner.oracle ^ " attempted") true (s.Runner.attempts > 0);
      Alcotest.(check bool)
        (s.Runner.oracle ^ " caught its fault class")
        true (s.Runner.caught > 0))
    stats;
  Alcotest.(check bool) "aggregate ok" true (Runner.self_test_ok stats)

let test_self_test_jobs_independent () =
  let render stats = Format.asprintf "%a" Runner.pp_self_test stats in
  let a = Runner.self_test ~jobs:1 ~seed:29 ~cases:20 () in
  let b = Runner.self_test ~jobs:3 ~seed:29 ~cases:20 () in
  Alcotest.(check string) "self-test byte-identical across jobs" (render a)
    (render b)

let suite =
  [
    ("gen valid + deterministic", `Quick, test_gen_valid_and_deterministic);
    ("gen covers shapes", `Quick, test_gen_covers_shapes);
    ("inject distinct valid mutant", `Quick, test_inject_produces_distinct_valid_mutant);
    ("shrink minimizes", `Quick, test_shrink_minimizes);
    ("shrink rejects passing input", `Quick, test_shrink_rejects_passing_input);
    ("runner clean campaign", `Quick, test_clean_run);
    ("oracle streams distinct", `Quick, test_streams_distinct);
    ("runner jobs-independent", `Quick, test_run_jobs_independent);
    ("runner repeated oracle runs once", `Quick, test_repeated_oracle_runs_once);
    ("runner failure path + reproducer", `Quick, test_failure_shrinks_and_writes_reproducer);
    ("self-test catches all fault classes", `Slow, test_self_test_every_oracle_catches);
    ("self-test jobs-independent", `Quick, test_self_test_jobs_independent);
  ]
