(* Tests for the bench-history subsystem: record round-trips, the
   runner's stable-part byte-identity across job counts and runs,
   drift detection, history file round-trips and the HTML trend
   report. *)

module BH = Shell_bench_history
module Record = BH.Record
module History = BH.History
module Check = BH.Check
module Report = BH.Report
module Runner = BH.Runner
module J = Shell_util.Jsonw

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let uniq = ref 0

let temp_path suffix =
  incr uniq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "shell_bh_%d_%d%s" (Unix.getpid ()) !uniq suffix)

let sample_record ?(target = "t") ?(commit = "c0") ?(jobs = 1) () =
  {
    Record.version = Record.version;
    commit;
    target;
    jobs;
    times = [ ("a", 0.5); ("b", 1.25) ];
    counters = [ ("alpha", 3); ("beta", 41); ("gamma.count", 7) ];
    spans = [ ("root", 1); ("root/kid", 2); ("root/kid#n", 63) ];
  }

(* ---- record round-trip ---- *)

let test_record_roundtrip () =
  let r = sample_record () in
  (match Record.of_line (Record.to_line r) with
  | Ok r' ->
      Alcotest.(check string) "commit" r.Record.commit r'.Record.commit;
      Alcotest.(check string) "target" r.Record.target r'.Record.target;
      Alcotest.(check int) "jobs" r.Record.jobs r'.Record.jobs;
      Alcotest.(check bool) "counters" true (r.Record.counters = r'.Record.counters);
      Alcotest.(check bool) "spans" true (r.Record.spans = r'.Record.spans);
      Alcotest.(check (list string))
        "time keys" (List.map fst r.Record.times)
        (List.map fst r'.Record.times)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (match Record.of_line "{\"not\": \"a record\"}" with
  | Ok _ -> Alcotest.fail "junk accepted"
  | Error _ -> ());
  (* the stable part omits everything that may legitimately vary *)
  let s = J.to_string (Record.stable_json r) in
  Alcotest.(check bool) "no commit in stable part" false
    (contains s "commit")

let test_record_nonfinite_times () =
  (* a NaN/inf wall time is clamped to 0.0 at record time so the
     committed line stays parseable forever *)
  let r =
    {
      (sample_record ()) with
      Record.times =
        [ ("a", Float.nan); ("b", Float.infinity); ("c", 0.75) ];
    }
  in
  match Record.of_line (Record.to_line r) with
  | Ok r' ->
      Alcotest.(check (list string))
        "all time keys survive" [ "a"; "b"; "c" ]
        (List.map fst r'.Record.times);
      Alcotest.(check bool) "nan clamped" true
        (List.assoc "a" r'.Record.times = 0.0);
      Alcotest.(check bool) "inf clamped" true
        (List.assoc "b" r'.Record.times = 0.0);
      Alcotest.(check bool) "finite kept" true
        (List.assoc "c" r'.Record.times = 0.75)
  | Error e -> Alcotest.failf "clamped record failed to parse: %s" e

let test_record_bad_field_named () =
  (* a corrupt value diagnoses with the qualified field name *)
  let bad =
    "{\"version\":1,\"commit\":\"c\",\"target\":\"t\",\"jobs\":1,"
    ^ "\"times\":{\"grid\":\"oops\"},\"counters\":{},\"spans\":{}}"
  in
  (match Record.of_line bad with
  | Ok _ -> Alcotest.fail "bad times value accepted"
  | Error e ->
      Alcotest.(check bool) "names times.grid" true
        (contains e "times.grid"));
  let bad_counter =
    "{\"version\":1,\"commit\":\"c\",\"target\":\"t\",\"jobs\":1,"
    ^ "\"times\":{},\"counters\":{\"beta\":1.5},\"spans\":{}}"
  in
  match Record.of_line bad_counter with
  | Ok _ -> Alcotest.fail "fractional counter accepted"
  | Error e ->
      Alcotest.(check bool) "names counters.beta" true
        (contains e "counters.beta")

(* ---- runner: the acceptance-criterion identity ---- *)

let stable_str r = J.to_string (Record.stable_json r)

let test_runner_stable_identity () =
  let t = Option.get (BH.Targets.find "simulate") in
  let r1 = Runner.run_target ~commit:"x" ~jobs:1 t in
  let r4 = Runner.run_target ~commit:"x" ~jobs:4 t in
  let r1' = Runner.run_target ~commit:"x" ~jobs:1 t in
  Alcotest.(check string)
    "jobs=1 vs jobs=4 stable parts byte-identical" (stable_str r1)
    (stable_str r4);
  Alcotest.(check string)
    "two runs on the same commit byte-identical" (stable_str r1)
    (stable_str r1');
  Alcotest.(check bool)
    "sim counters present" true
    (List.mem_assoc "sim_vectors" r1.Record.counters);
  Alcotest.(check bool)
    "pool totals stable across job counts" true
    (List.assoc_opt "pool_tasks" r1.Record.counters
    = List.assoc_opt "pool_tasks" r4.Record.counters);
  Alcotest.(check bool)
    "bench span root recorded" true
    (List.mem_assoc "bench.simulate" r1.Record.spans)

(* ---- check: drift detection ---- *)

let test_check_catches_perturbation () =
  let baseline = sample_record () in
  let clean = Check.diff ~baseline (sample_record ()) in
  Alcotest.(check bool) "identical records pass" true (Check.ok clean);
  (* the seeded perturbation: one counter moves by one *)
  let r = sample_record () in
  let perturbed =
    {
      r with
      Record.counters =
        List.map
          (fun (k, v) -> if k = "beta" then (k, v + 1) else (k, v))
          r.Record.counters;
    }
  in
  let rep = Check.diff ~baseline perturbed in
  Alcotest.(check bool) "perturbation caught" false (Check.ok rep);
  (match rep.Check.counters with
  | [ c ] ->
      Alcotest.(check string) "right key" "beta" c.Check.key;
      Alcotest.(check (option int)) "old" (Some 41) c.Check.baseline;
      Alcotest.(check (option int)) "new" (Some 42) c.Check.current
  | cs -> Alcotest.failf "expected 1 change, got %d" (List.length cs));
  (* appearing and vanishing keys are drift too *)
  let extra =
    { r with Record.spans = r.Record.spans @ [ ("zz", 1) ] }
  in
  let rep = Check.diff ~baseline extra in
  Alcotest.(check bool) "new span key is drift" false (Check.ok rep);
  let diag = Check.to_diag rep in
  Alcotest.(check bool) "diag carries payload" true
    (match diag.Shell_util.Diag.payload with
    | Check.Perf_drift _ -> true
    | _ -> false)

(* ---- history file ---- *)

let test_history_roundtrip () =
  let path = temp_path ".jsonl" in
  Alcotest.(check bool) "missing file is empty history" true
    (History.load path = Ok []);
  History.append path (sample_record ~target:"a" ~commit:"c1" ());
  History.append path (sample_record ~target:"b" ~commit:"c1" ());
  History.append path (sample_record ~target:"a" ~commit:"c2" ());
  (match History.load path with
  | Ok rs ->
      Alcotest.(check int) "all records" 3 (List.length rs);
      Alcotest.(check (list string)) "targets in order" [ "a"; "b" ]
        (History.targets rs);
      (match History.last ~target:"a" rs with
      | Some r -> Alcotest.(check string) "last a" "c2" r.Record.commit
      | None -> Alcotest.fail "no last record");
      Alcotest.(check int) "per-target filter" 2
        (List.length (History.for_target "a" rs))
  | Error e -> Alcotest.failf "load failed: %s" e);
  (* a corrupt line fails with its location *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json\n";
  close_out oc;
  (match History.load path with
  | Ok _ -> Alcotest.fail "corrupt line accepted"
  | Error e ->
      Alcotest.(check bool) "names the line" true
        (contains e ":4:"));
  Sys.remove path

(* ---- report ---- *)

let test_report_html () =
  let r1 = sample_record ~commit:"c1" () in
  let r2 =
    {
      (sample_record ~commit:"c2" ()) with
      Record.counters = [ ("alpha", 3); ("beta", 43); ("gamma.count", 7) ];
    }
  in
  let html = Report.html [ r1; r2 ] in
  let has affix = contains html affix in
  Alcotest.(check bool) "doctype" true (has "<!DOCTYPE html>");
  Alcotest.(check bool) "closes" true (has "</html>");
  Alcotest.(check bool) "target section" true (has "<h2>t ");
  Alcotest.(check bool) "sparkline" true (has "<svg");
  Alcotest.(check bool) "commit range" true (has "c1");
  Alcotest.(check bool) "drifting row annotated" true (has "class=\"drift\"");
  Alcotest.(check bool) "delta rendered" true (has "+2");
  Alcotest.(check bool) "self-contained: no script" false (has "<script");
  Alcotest.(check bool) "self-contained: no http fetch" false (has "http://");
  (* deterministic: same history, same bytes *)
  Alcotest.(check string) "byte-stable" html (Report.html [ r1; r2 ]);
  (* hostile key names are escaped *)
  let evil =
    { r1 with Record.counters = [ ("<b>&x", 1) ] }
  in
  let html = Report.html [ evil ] in
  Alcotest.(check bool) "escaped" true
    (contains html "&lt;b&gt;&amp;x")

(* ---- end-to-end: execute with record + check ---- *)

let test_execute_record_check () =
  let history = temp_path ".jsonl" in
  let quiet _ = () in
  let opts target =
    {
      Runner.default_opts with
      Runner.targets = [ "simulate" ];
      history = Some history;
      record = target;
      check = not target;
      commit = Some "seed";
    }
  in
  (* no baseline yet: check-only passes (and appends nothing) *)
  (match Runner.execute ~out:quiet (opts false) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "check without baseline must pass");
  (* record, then check against it *)
  (match Runner.execute ~out:quiet (opts true) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "record run failed");
  Alcotest.(check bool) "history written" true (Sys.file_exists history);
  (match Runner.execute ~out:quiet (opts false) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "clean re-check failed");
  (* an older commit's history file, whose last record carries other
     counters (as `git show BASE:BENCH_HISTORY.jsonl` gives after a
     change re-records): checking against it reports the drift *)
  let older = temp_path ".jsonl" in
  (match History.load history with
  | Ok [ r ] ->
      History.append older
        {
          r with
          Record.commit = "base";
          counters =
            List.map
              (fun (k, v) ->
                if k = "sim_vectors" then (k, v + 1) else (k, v))
              r.Record.counters;
        }
  | _ -> Alcotest.fail "expected exactly one record");
  (match
     Runner.execute ~out:quiet { (opts false) with Runner.history = Some older }
   with
  | Ok () -> Alcotest.fail "older baseline must fail the check"
  | Error [ d ] ->
      Alcotest.(check bool) "Perf_drift diagnostic" true
        (match d.Shell_util.Diag.payload with
        | Check.Perf_drift rep ->
            List.exists
              (fun c -> c.Check.key = "sim_vectors")
              rep.Check.counters
        | _ -> false)
  | Error _ -> Alcotest.fail "expected one diagnostic");
  Sys.remove older;
  (* report over the history *)
  let report = temp_path ".html" in
  (match
     Runner.execute ~out:quiet
       { (opts false) with Runner.check = false; report = Some report }
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "report run failed");
  Alcotest.(check bool) "report written" true (Sys.file_exists report);
  Sys.remove report;
  Sys.remove history

let test_unknown_target () =
  match
    Runner.execute
      ~out:(fun _ -> ())
      { Runner.default_opts with Runner.targets = [ "nope" ] }
  with
  | Ok () -> Alcotest.fail "unknown target accepted"
  | Error [ d ] ->
      Alcotest.(check bool) "names the target" true
        (contains d.Shell_util.Diag.message "nope")
  | Error _ -> Alcotest.fail "expected one diagnostic"

let suite =
  [
    Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
    Alcotest.test_case "record non-finite times clamped" `Quick
      test_record_nonfinite_times;
    Alcotest.test_case "record bad field named" `Quick
      test_record_bad_field_named;
    Alcotest.test_case "runner stable-part byte-identity" `Quick
      test_runner_stable_identity;
    Alcotest.test_case "check catches counter perturbation" `Quick
      test_check_catches_perturbation;
    Alcotest.test_case "history round-trip" `Quick test_history_roundtrip;
    Alcotest.test_case "report html" `Quick test_report_html;
    Alcotest.test_case "execute record+check+report" `Quick
      test_execute_record_check;
    Alcotest.test_case "unknown target" `Quick test_unknown_target;
  ]
