(* Tests for Shell_util.Pool: the deterministic contract (index-ordered
   collection, lowest-index exception), and the parallel == sequential
   guarantees of the call sites that ride on it (betweenness,
   Explore.search). *)

module Pool = Shell_util.Pool
module Obs = Shell_util.Obs
module Rng = Shell_util.Rng
module D = Shell_graph.Digraph
module Cent = Shell_graph.Centrality
module C = Shell_core
module Circ = Shell_circuits

let job_counts = [ 1; 2; 8 ]

exception Boom of int

let test_map_matches_sequential () =
  let input = Array.init 57 (fun i -> i) in
  let f x = (x * x) + 3 in
  let expect = Array.map f input in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Pool.map ~jobs f input))
    job_counts

let test_mapi_indices () =
  let input = Array.make 33 "x" in
  List.iter
    (fun jobs ->
      let out = Pool.mapi ~jobs (fun i s -> Printf.sprintf "%s%d" s i) input in
      Array.iteri
        (fun i v ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d idx=%d" jobs i)
            (Printf.sprintf "x%d" i) v)
        out)
    job_counts

let test_map_list_order () =
  let input = List.init 21 (fun i -> i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map (fun x -> x * 2) input)
        (Pool.map_list ~jobs (fun x -> x * 2) input))
    job_counts

let test_lowest_index_exception () =
  let input = Array.init 64 (fun i -> i) in
  List.iter
    (fun jobs ->
      let raised =
        try
          ignore
            (Pool.map ~jobs
               (fun i -> if i = 5 || i = 2 || i = 7 then raise (Boom i) else i)
               input);
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int))
        (Printf.sprintf "jobs=%d lowest raiser" jobs)
        (Some 2) raised)
    job_counts

let test_task_rng_stable () =
  let a = Pool.task_rng ~seed:7 3 and b = Pool.task_rng ~seed:7 3 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Pool.task_rng ~seed:7 4 in
  let differs = ref false in
  for _ = 1 to 50 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 c)) then differs := true
  done;
  Alcotest.(check bool) "distinct index, distinct stream" true !differs

(* Nested batches: [nested ~depth ~jobs p] maps over [width] tasks per
   level, each recursing one level deeper, and returns the paths its
   leaves ran under (task [i] of path [p] is [10p + i]), in the order
   the batches collected them. *)
let width = 5

let rec nested ~depth ~jobs ?(raises = fun _ -> false) path =
  Pool.mapi ~jobs
    (fun i () ->
      let path = (path * 10) + i in
      if depth > 1 then nested ~depth:(depth - 1) ~jobs ~raises path
      else if raises path then raise (Boom path)
      else [ path ])
    (Array.make width ())
  |> Array.to_list |> List.concat

let rec leaves depth path =
  if depth = 0 then [ path ]
  else
    List.concat_map
      (fun i -> leaves (depth - 1) ((path * 10) + i))
      (List.init width Fun.id)

let test_nested_order () =
  List.iter
    (fun depth ->
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "depth=%d jobs=%d" depth jobs)
            (leaves depth 1) (nested ~depth ~jobs 1))
        job_counts)
    [ 2; 3 ]

(* Inner tasks raise at several paths; the exception that surfaces is
   the one a sequential run would hit first. *)
let test_nested_lowest_exception () =
  List.iter
    (fun (depth, raisers, first) ->
      List.iter
        (fun jobs ->
          let raises p = List.mem p raisers in
          let raised =
            match nested ~depth ~jobs ~raises 1 with
            | _ -> None
            | exception Boom p -> Some p
          in
          Alcotest.(check (option int))
            (Printf.sprintf "depth=%d jobs=%d" depth jobs)
            (Some first) raised)
        job_counts)
    [ (2, [ 143; 124; 130; 140 ], 124); (3, [ 1432; 1244; 1240; 1304 ], 1240) ]

(* At jobs=2, an outer batch of two runs task 1 that submits an inner
   batch of two: the domain that finished outer task 0 must pick up the
   inner batch's second task while the first still runs. Each inner
   task waits (up to 5 s) until both are running at once. *)
let test_nested_shares_domains () =
  let running = Atomic.make 0 in
  let inner _ =
    Atomic.incr running;
    let deadline = Shell_util.Clock.now () +. 5.0 in
    while Atomic.get running < 2 && Shell_util.Clock.now () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get running >= 2
  in
  let out =
    Pool.map ~jobs:2
      (fun i -> if i = 0 then [||] else Pool.map ~jobs:2 inner [| 0; 1 |])
      [| 0; 1 |]
  in
  Alcotest.(check (array bool)) "both inner tasks ran at once" [| true; true |]
    out.(1)

(* Spans opened by the tasks of nested batches attach to the span their
   submitter had open, whichever domain runs them, so the aggregated
   span tree is the same at every job count: under a root span, and
   with the outer batch submitted outside any span (its tasks' spans
   are roots). Each leaf busies its domain for a millisecond so that
   idle workers do pick up tasks. *)
let busy seconds =
  let until = Shell_util.Clock.now () +. seconds in
  while Shell_util.Clock.now () < until do
    Domain.cpu_relax ()
  done

let test_nested_span_tree () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let rec level ~jobs depth =
    ignore
      (Pool.map ~jobs
         (fun () ->
           Obs.with_span (Printf.sprintf "d%d" depth) (fun () ->
               Obs.span_add "n" 1;
               if depth > 1 then level ~jobs (depth - 1) else busy 0.001))
         (Array.make 3 ()))
  in
  let rooted jobs =
    match Obs.with_root_span "root" (fun () -> level ~jobs 3) with
    | (), Some sp -> Obs.span_aggregate [ sp ]
    | (), None -> []
  in
  let unrooted jobs =
    ignore (Obs.take_spans ());
    level ~jobs 3;
    Obs.span_aggregate (Obs.take_spans ())
  in
  let expect = rooted 1 in
  Alcotest.(check (option int))
    "27 leaf spans under the root" (Some 27)
    (List.assoc_opt "root/d3/d2/d1" expect);
  let expect_unrooted = unrooted 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "rooted, jobs=%d" jobs)
        expect (rooted jobs);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "unrooted, jobs=%d" jobs)
        expect_unrooted (unrooted jobs))
    [ 2; 8 ]

(* Random digraphs: parallel betweenness must equal the sequential run
   with exact float equality (per-source accumulators folded in source
   order). *)
let random_digraph n seed =
  let rng = Rng.create seed in
  let edges =
    List.init (3 * n) (fun _ -> (Rng.int rng n, Rng.int rng n))
  in
  D.make ~n ~edges

let test_betweenness_parity =
  QCheck.Test.make ~name:"betweenness parallel == sequential (exact)"
    ~count:60
    QCheck.(pair (int_range 6 28) (int_bound 0x3FFFFFFF))
    (fun (n, seed) ->
      let g = random_digraph n seed in
      let sources = List.init (min n 8) Fun.id in
      let sinks = List.init (min n 6) (fun i -> n - 1 - i) in
      let seq = Cent.betweenness ~jobs:1 g ~sources ~sinks in
      List.for_all
        (fun jobs ->
          let par = Cent.betweenness ~jobs g ~sources ~sinks in
          Array.length par = Array.length seq
          && Array.for_all2
               (fun a b ->
                 Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               par seq)
        [ 2; 4; 8 ])

let picosoc =
  lazy ((List.nth Circ.Catalog.all 0).Circ.Catalog.netlist ())

let test_explore_jobs_parity () =
  let nl = Lazy.force picosoc in
  let run jobs = C.Explore.search ~jobs ~generations:1 ~population:5 nl in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool)
    "same best coefficients" true
    (a.C.Explore.best.C.Explore.coeffs = b.C.Explore.best.C.Explore.coeffs);
  Alcotest.(check string)
    "same best TfR" a.C.Explore.best.C.Explore.label
    b.C.Explore.best.C.Explore.label;
  Alcotest.(check int)
    "same evaluated count"
    (List.length a.C.Explore.evaluated)
    (List.length b.C.Explore.evaluated);
  List.iter2
    (fun (x : C.Explore.candidate) (y : C.Explore.candidate) ->
      Alcotest.(check bool) "same profile" true (x.C.Explore.coeffs = y.C.Explore.coeffs);
      Alcotest.(check string) "same label" x.C.Explore.label y.C.Explore.label)
    a.C.Explore.evaluated b.C.Explore.evaluated

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "mapi passes indices" `Quick test_mapi_indices;
    Alcotest.test_case "map_list keeps order" `Quick test_map_list_order;
    Alcotest.test_case "lowest-index exception wins" `Quick
      test_lowest_index_exception;
    Alcotest.test_case "task_rng stable per (seed,index)" `Quick
      test_task_rng_stable;
    Alcotest.test_case "nested batch shares idle domains" `Quick
      test_nested_shares_domains;
    Alcotest.test_case "nested batches keep index order" `Quick
      test_nested_order;
    Alcotest.test_case "nested lowest-index exception wins" `Quick
      test_nested_lowest_exception;
    Alcotest.test_case "nested batches keep the span tree" `Quick
      test_nested_span_tree;
    QCheck_alcotest.to_alcotest test_betweenness_parity;
    Alcotest.test_case "Explore.search parity across jobs" `Slow
      test_explore_jobs_parity;
  ]
