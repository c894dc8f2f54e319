(* Tests for Shell_util.Pool: the deterministic contract (index-ordered
   collection, lowest-index exception), and the parallel == sequential
   guarantees of the call sites that ride on it (betweenness,
   Explore.search). *)

module Pool = Shell_util.Pool
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

let test_nested_map_falls_back () =
  (* a map inside a map must not deadlock and must stay correct *)
  let out =
    Pool.map ~jobs:4
      (fun i ->
        let inner = Pool.map ~jobs:4 (fun j -> i * j) (Array.init 8 Fun.id) in
        Array.fold_left ( + ) 0 inner)
      (Array.init 12 Fun.id)
  in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "i=%d" i) (i * 28) v)
    out;
  Alcotest.(check bool) "not inside task afterwards" false (Pool.inside_task ())

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
    Alcotest.test_case "nested map falls back sequentially" `Quick
      test_nested_map_falls_back;
    QCheck_alcotest.to_alcotest test_betweenness_parity;
    Alcotest.test_case "Explore.search parity across jobs" `Slow
      test_explore_jobs_parity;
  ]
