(* Tests for the bench-history subsystem: record round-trips, the
   runner's stable-part byte-identity across job counts and runs,
   drift detection (with allowlist and time-tolerance), history file
   round-trips and the HTML trend report. *)

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

let test_check_allowlist () =
  let baseline = sample_record () in
  let r = sample_record () in
  let perturbed =
    {
      r with
      Record.counters =
        List.map
          (fun (k, v) -> if k = "beta" then (k, v + 5) else (k, v))
          r.Record.counters;
    }
  in
  let try_allow allow =
    Check.ok (Check.diff ~allow ~baseline perturbed)
  in
  Alcotest.(check bool) "exact key" true (try_allow [ "beta" ]);
  Alcotest.(check bool) "wildcard" true (try_allow [ "be*" ]);
  Alcotest.(check bool) "target-scoped" true (try_allow [ "t:beta" ]);
  Alcotest.(check bool) "other target does not allow" false
    (try_allow [ "other:beta" ]);
  Alcotest.(check bool) "unrelated key does not allow" false
    (try_allow [ "alpha" ]);
  (* allowed changes are still reported, just flagged *)
  let rep = Check.diff ~allow:[ "beta" ] ~baseline perturbed in
  (match rep.Check.counters with
  | [ c ] -> Alcotest.(check bool) "flagged allowed" true c.Check.allowed
  | _ -> Alcotest.fail "change should still be listed");
  (* parser: comments, blanks, inline # *)
  let pats =
    Check.allowlist_of_string "# header\n\n  beta  # why\nt:gam*\n"
  in
  Alcotest.(check (list string)) "parsed" [ "beta"; "t:gam*" ] pats

let test_check_time_tolerance () =
  let baseline = sample_record () in
  let r = sample_record () in
  let slow =
    { r with Record.times = [ ("a", 1.2); ("b", 1.25) ] }
  in
  (* times ignored without an explicit tolerance *)
  Alcotest.(check bool) "no tolerance: ignored" true
    (Check.ok (Check.diff ~baseline slow));
  (* a: 0.5 -> 1.2 is x2.4, outside +-100% *)
  let rep = Check.diff ~time_tolerance:1.0 ~baseline slow in
  Alcotest.(check bool) "outside band flagged" false (Check.ok rep);
  (match rep.Check.times with
  | [ d ] -> Alcotest.(check string) "right bench" "a" d.Check.bench
  | _ -> Alcotest.fail "expected one time drift");
  Alcotest.(check bool) "inside a wide band" true
    (Check.ok (Check.diff ~time_tolerance:2.0 ~baseline slow))

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
      jobs = Some 2;
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
  (* perturb the committed record: the check must now fail *)
  (match History.load history with
  | Ok [ r ] ->
      let r' =
        {
          r with
          Record.counters =
            List.map
              (fun (k, v) ->
                if k = "sim_vectors" then (k, v + 1) else (k, v))
              r.Record.counters;
        }
      in
      Sys.remove history;
      History.append history r'
  | _ -> Alcotest.fail "expected exactly one record");
  (match Runner.execute ~out:quiet (opts false) with
  | Ok () -> Alcotest.fail "perturbed baseline must fail the check"
  | Error [ d ] ->
      Alcotest.(check bool) "Perf_drift diagnostic" true
        (match d.Shell_util.Diag.payload with
        | Check.Perf_drift rep ->
            List.exists
              (fun c -> c.Check.key = "sim_vectors")
              rep.Check.counters
        | _ -> false)
  | Error _ -> Alcotest.fail "expected one diagnostic");
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

let test_check_against () =
  let history = temp_path ".jsonl" in
  let quiet _ = () in
  let opts =
    {
      Runner.default_opts with
      Runner.targets = [ "simulate" ];
      jobs = Some 2;
      history = Some history;
      check = true;
    }
  in
  (* record a good baseline at the "merge base" commit... *)
  (match
     Runner.execute ~out:quiet
       { opts with Runner.check = false; record = true; commit = Some "mbase123" }
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "baseline record failed");
  (* ...then append a perturbed record as the latest entry *)
  (match History.load history with
  | Ok [ r ] ->
      History.append history
        {
          r with
          Record.commit = "head999";
          counters =
            List.map
              (fun (k, v) ->
                if k = "sim_vectors" then (k, v + 1) else (k, v))
              r.Record.counters;
        }
  | _ -> Alcotest.fail "expected exactly one record");
  (* default baseline = last record = the perturbed one: drift *)
  (match Runner.execute ~out:quiet { opts with Runner.commit = Some "c" } with
  | Ok () -> Alcotest.fail "check vs perturbed last record must fail"
  | Error _ -> ());
  (* --against a commit prefix picks the merge-base record: clean *)
  (match
     Runner.execute ~out:quiet
       { opts with Runner.commit = Some "c"; against = Some "mbase" }
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "check --against mbase must pass");
  (* --against merge-base resolves via SHELL_BENCH_MERGE_BASE *)
  Unix.putenv "SHELL_BENCH_MERGE_BASE" "mbase123";
  Alcotest.(check (option string))
    "merge-base resolves from the env override" (Some "mbase123")
    (Runner.merge_base_commit ());
  (match
     Runner.execute ~out:quiet
       { opts with Runner.commit = Some "c"; against = Some "merge-base" }
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "check --against merge-base must pass");
  Unix.putenv "SHELL_BENCH_MERGE_BASE" "";
  (* an unmatched spec warns and falls back to the last record *)
  let warned = ref false in
  (match
     Runner.execute
       ~out:(fun s -> if contains s "falling back" then warned := true)
       { opts with Runner.commit = Some "c"; against = Some "nomatch" }
   with
  | Ok () -> Alcotest.fail "fallback baseline is the perturbed record"
  | Error _ -> ());
  Alcotest.(check bool) "fallback warned" true !warned;
  (* prefix matching is symmetric and rejects empties *)
  Alcotest.(check bool) "spec prefix" true
    (Runner.commit_matches ~spec:"ab" "abcdef");
  Alcotest.(check bool) "commit prefix" true
    (Runner.commit_matches ~spec:"abcdef" "abc");
  Alcotest.(check bool) "mismatch" false
    (Runner.commit_matches ~spec:"ab" "ba");
  Alcotest.(check bool) "empty spec" false (Runner.commit_matches ~spec:"" "a");
  Alcotest.(check bool) "empty commit" false
    (Runner.commit_matches ~spec:"a" "");
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
    Alcotest.test_case "check allowlist" `Quick test_check_allowlist;
    Alcotest.test_case "check time tolerance" `Quick
      test_check_time_tolerance;
    Alcotest.test_case "history round-trip" `Quick test_history_roundtrip;
    Alcotest.test_case "report html" `Quick test_report_html;
    Alcotest.test_case "execute record+check+report" `Quick
      test_execute_record_check;
    Alcotest.test_case "check --against merge-base" `Quick test_check_against;
    Alcotest.test_case "unknown target" `Quick test_unknown_target;
  ]
