(* Tests for the Obs telemetry layer: histogram bucket edges, stable
   snapshot byte-identity across job counts, span nesting (including a
   forced PnR abort), and the zero-allocation no-op path. *)

module Obs = Shell_util.Obs
module Pool = Shell_util.Pool
module F = Shell_fabric
module C = Shell_core
module Circ = Shell_circuits

(* Metrics must register at module-initialization time (fixed registry
   order). Unstable by default, so the stable-only snapshots below
   never see them. *)
let c_test = Obs.counter ~help:"test counter" "test_obs_counter"
let g_test = Obs.gauge ~help:"test gauge" "test_obs_gauge"
let h_test = Obs.histogram ~help:"test histogram" "test_obs_hist"

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was;
      Obs.reset ())
    f

(* ---- histogram buckets ---- *)

let test_bucket_edges () =
  (* bucket 0 holds values <= 1; bucket i >= 1 holds (2^(i-1), 2^i] *)
  Alcotest.(check int) "0 -> bucket 0" 0 (Obs.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 0" 0 (Obs.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 1" 1 (Obs.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (Obs.bucket_of 3);
  for i = 1 to Obs.nbuckets - 2 do
    let p = 1 lsl i in
    Alcotest.(check int)
      (Printf.sprintf "2^%d on the edge" i)
      i (Obs.bucket_of p);
    Alcotest.(check int)
      (Printf.sprintf "2^%d + 1 rolls over" i)
      (i + 1)
      (Obs.bucket_of (p + 1))
  done;
  Alcotest.(check int) "overflow clamps to last bucket" (Obs.nbuckets - 1)
    (Obs.bucket_of max_int)

let test_histogram_observe () =
  with_obs @@ fun () ->
  Obs.reset ();
  List.iter (Obs.observe h_test) [ 0; 1; 2; 4; 5; 1024 ];
  let s =
    List.find
      (fun (s : Obs.sample) -> s.Obs.name = "test_obs_hist")
      (Obs.snapshot ())
  in
  match s.Obs.value with
  | Obs.Histogram { buckets; count; sum } ->
      Alcotest.(check int) "count" 6 count;
      Alcotest.(check int) "sum" 1036 sum;
      Alcotest.(check int) "bucket 0 (v<=1)" 2 buckets.(0);
      Alcotest.(check int) "bucket 1 (2)" 1 buckets.(1);
      Alcotest.(check int) "bucket 2 (4)" 1 buckets.(2);
      Alcotest.(check int) "bucket 3 (5)" 1 buckets.(3);
      Alcotest.(check int) "bucket 10 (1024)" 1 buckets.(10)
  | _ -> Alcotest.fail "expected a histogram sample"

(* ---- stable snapshot byte-identity across job counts ---- *)

let fir = lazy (Circ.Fir.netlist ())

let stable_snapshot jobs =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) @@ fun () ->
  Obs.reset ();
  C.Pipeline.clear_cache ();
  ignore (C.Flow.run (C.Flow.shell_config ()) (Lazy.force fir));
  ignore (Pool.map (fun x -> x * x) (Array.init 64 Fun.id));
  Obs.to_json ~stable_only:true (Obs.snapshot ())

let test_stable_snapshot_byte_identical () =
  with_obs @@ fun () ->
  let j1 = stable_snapshot 1 in
  let j4 = stable_snapshot 4 in
  Alcotest.(check string) "stable snapshot independent of jobs" j1 j4

(* ---- span nesting ---- *)

let span_child (s : Obs.span) name =
  List.find_opt (fun (c : Obs.span) -> c.Obs.name = name) s.Obs.children

let test_span_tree_full_flow () =
  with_obs @@ fun () ->
  Obs.reset ();
  C.Pipeline.clear_cache ();
  let _ = C.Flow.run (C.Flow.shell_config ()) (Lazy.force fir) in
  let root =
    match Obs.spans () with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one root span, got %d" (List.length l)
  in
  Alcotest.(check string) "root is the pipeline" "pipeline" root.Obs.name;
  Alcotest.(check (list string))
    "one child span per pass, in order" C.Pipeline.pass_names
    (List.map (fun (s : Obs.span) -> s.Obs.name) root.Obs.children);
  let pnr =
    match span_child root "pnr" with
    | Some s -> s
    | None -> Alcotest.fail "no pnr span"
  in
  Alcotest.(check bool) "fit attempts recorded under pnr" true
    (List.exists (fun (s : Obs.span) -> s.Obs.name = "pnr.attempt")
       pnr.Obs.children)

let test_span_tree_pnr_abort () =
  (* pin a 1x1 fabric so strict mode aborts at the pnr pass: the span
     tree must still be recorded and end at the failing pass *)
  with_obs @@ fun () ->
  Obs.reset ();
  C.Pipeline.clear_cache ();
  let tiny =
    {
      F.Fabric.style = F.Style.Fabulous_muxchain;
      cols = 1;
      rows = 1;
      chain_slots = 0;
    }
  in
  Alcotest.(check bool) "flow aborted" true
    (match
       C.Flow.run ~strict_fit:true ~fabric:tiny (C.Flow.shell_config ())
         (Lazy.force fir)
     with
    | _ -> false
    | exception Shell_util.Diag.Error _ -> true);
  let root =
    match Obs.spans () with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one root span, got %d" (List.length l)
  in
  Alcotest.(check string) "root is the pipeline" "pipeline" root.Obs.name;
  Alcotest.(check (list string))
    "children stop at the failing pass"
    [ "connectivity"; "selection"; "extraction"; "synthesis"; "pnr" ]
    (List.map (fun (s : Obs.span) -> s.Obs.name) root.Obs.children)

(* ---- disabled fast path ---- *)

let test_disabled_no_alloc () =
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  (* warm up so any one-time setup is out of the measured window *)
  Obs.incr c_test;
  Obs.observe h_test 1;
  Obs.set g_test 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Obs.incr c_test;
    Obs.add c_test i;
    Obs.set g_test i;
    Obs.observe h_test i
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "no allocation on the disabled path" true
    (w1 -. w0 < 256.0)

let test_disabled_records_nothing () =
  let was = Obs.enabled () in
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled was;
      Obs.reset ())
  @@ fun () ->
  Obs.set_enabled false;
  Obs.reset ();
  Obs.incr c_test;
  Obs.observe h_test 42;
  let r = Obs.with_span "ghost" (fun () -> 17) in
  Alcotest.(check int) "with_span is transparent" 17 r;
  Alcotest.(check bool) "no spans recorded" true (Obs.spans () = []);
  let s =
    List.find
      (fun (s : Obs.sample) -> s.Obs.name = "test_obs_counter")
      (Obs.snapshot ())
  in
  (match s.Obs.value with
  | Obs.Counter n -> Alcotest.(check int) "counter untouched" 0 n
  | _ -> Alcotest.fail "expected a counter sample")

(* ---- prometheus exposition edge cases ---- *)

(* [sample] is a public record, so the export paths can be exercised on
   hand-built lists without touching the registry. *)
let mk ?(stable = false) ?(help = "h") name value =
  { Obs.name; help; stable; value }

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_prometheus_empty () =
  Alcotest.(check string) "empty snapshot renders as empty" ""
    (Obs.to_prometheus []);
  Alcotest.(check string) "stable filter on empty" ""
    (Obs.to_prometheus ~stable_only:true [])

let test_prometheus_name_charset () =
  let text =
    Obs.to_prometheus
      [
        mk "pnr.attempt" (Obs.Counter 2);
        mk "9lives" (Obs.Counter 1);
        mk "weird-name!x" (Obs.Gauge 5);
      ]
  in
  Alcotest.(check bool) "dots map to underscores" true
    (contains text "shell_pnr_attempt 2");
  (* the prefix keeps a leading digit legal *)
  Alcotest.(check bool) "leading digit prefixed" true
    (contains text "shell_9lives 1");
  Alcotest.(check bool) "hostile chars sanitized" true
    (contains text "shell_weird_name_x 5");
  Alcotest.(check bool) "no raw dot survives in a metric name" false
    (contains text "pnr.attempt 2")

let test_prometheus_help_escaping () =
  let text =
    Obs.to_prometheus
      [ mk ~help:"line one\nline two \\ end" "m" (Obs.Counter 0) ]
  in
  Alcotest.(check bool) "newline escaped" true
    (contains text "# HELP shell_m line one\\nline two \\\\ end\n");
  Alcotest.(check bool) "help stays on one line" false
    (contains text "line one\nline")

let test_prometheus_histogram_cumulative () =
  let buckets = Array.make Obs.nbuckets 0 in
  buckets.(0) <- 2;
  buckets.(2) <- 1;
  let text =
    Obs.to_prometheus
      [ mk "h" (Obs.Histogram { buckets; count = 3; sum = 10 }) ]
  in
  Alcotest.(check bool) "le=1 cumulative" true
    (contains text "shell_h_bucket{le=\"1\"} 2\n");
  Alcotest.(check bool) "le=4 includes earlier buckets" true
    (contains text "shell_h_bucket{le=\"4\"} 3\n");
  Alcotest.(check bool) "+Inf equals count" true
    (contains text "shell_h_bucket{le=\"+Inf\"} 3\n");
  Alcotest.(check bool) "sum and count lines" true
    (contains text "shell_h_sum 10\nshell_h_count 3\n")

let test_stable_only_filter_round_trip () =
  let samples =
    [
      mk ~stable:true "keep_me" (Obs.Counter 7);
      mk "drop_me" (Obs.Counter 8);
      mk ~stable:true "also_keep" (Obs.Gauge 3);
    ]
  in
  (* prometheus side *)
  let text = Obs.to_prometheus ~stable_only:true samples in
  Alcotest.(check bool) "stable kept" true (contains text "shell_keep_me 7");
  Alcotest.(check bool) "unstable dropped" false (contains text "drop_me");
  (* json side, re-parsed through Jsonw: same filtering decision *)
  match Shell_util.Jsonw.of_string (Obs.to_json ~stable_only:true samples) with
  | Error e -> Alcotest.failf "to_json not parseable: %s" e
  | Ok j ->
      let module Jw = Shell_util.Jsonw in
      let names =
        match j with
        | Jw.Obj [ ("metrics", Jw.Arr ms) ] ->
            List.map
              (function
                | Jw.Obj kvs -> (
                    match List.assoc_opt "name" kvs with
                    | Some (Jw.Str n) -> n
                    | _ -> Alcotest.fail "metric without a name")
                | _ -> Alcotest.fail "metric is not an object")
              ms
        | _ -> Alcotest.fail "expected {\"metrics\": [...]}"
      in
      Alcotest.(check (list string))
        "stable names survive the round trip" [ "keep_me"; "also_keep" ]
        names

(* A task run under an empty borrowed context starts on an empty span
   stack even when the running domain has spans of its own open (a pool
   submitter helping another batch): its spans become roots. *)
let test_empty_context_isolates () =
  with_obs @@ fun () ->
  ignore (Obs.take_spans ());
  let ctx = Obs.context () in
  let (), outer =
    Obs.with_root_span "helper" (fun () ->
        Obs.with_context ctx (fun () -> Obs.with_span "task" ignore))
  in
  let kids =
    match outer with
    | Some sp -> List.map (fun c -> c.Obs.name) sp.Obs.children
    | None -> []
  in
  Alcotest.(check (list string)) "nothing under the helper's span" [] kids;
  Alcotest.(check (list string))
    "the task's span is a root" [ "task" ]
    (List.map (fun sp -> sp.Obs.name) (Obs.take_spans ()))

let suite =
  [
    ("bucket edges at powers of two", `Quick, test_bucket_edges);
    ("histogram observe", `Quick, test_histogram_observe);
    ( "stable snapshot byte-identical jobs 1 vs 4",
      `Quick,
      test_stable_snapshot_byte_identical );
    ("span tree of a full flow", `Quick, test_span_tree_full_flow);
    ("span tree under pnr abort", `Quick, test_span_tree_pnr_abort);
    ("disabled path allocates nothing", `Quick, test_disabled_no_alloc);
    ("disabled path records nothing", `Quick, test_disabled_records_nothing);
    ("prometheus: empty snapshot", `Quick, test_prometheus_empty);
    ("prometheus: name charset", `Quick, test_prometheus_name_charset);
    ("prometheus: help escaping", `Quick, test_prometheus_help_escaping);
    ( "prometheus: histogram cumulative buckets",
      `Quick,
      test_prometheus_histogram_cumulative );
    ( "stable_only filter json round trip",
      `Quick,
      test_stable_only_filter_round_trip );
    ( "empty context isolates a task's spans",
      `Quick,
      test_empty_context_isolates );
  ]
