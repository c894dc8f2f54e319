(* The benchmark's own rules: percentiles, normalisation, seeded streams,
   rank placement, the result line's metric sets and failure accounting. *)

open Perfbench


let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (option (float 0.))) "median" (Some 50.) (Stats.median xs);
  Alcotest.(check (option (float 0.)))
    "p90 at 100 ops" (Some 90.) (Stats.p90 xs);
  let beyond = List.filter (fun x -> x > 90.) xs in
  Alcotest.(check int) "ten samples beyond p90" 10 (List.length beyond);
  Alcotest.(check (option (float 0.)))
    "p90 undefined below 100 ops" None
    (Stats.p90 (List.tl xs));
  Alcotest.(check (option (float 0.))) "odd count" (Some 2.)
    (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (option (float 0.))) "empty" None (Stats.median [])

let test_normalise () =
  (* flanking kernels of 1 and 3 units: the interval divides by 2 *)
  Alcotest.(check (float 1e-12))
    "divides by the mean kernel"
    (10. /. 2. *. Stats.reference_kernel_ms)
    (Stats.normalise ~before:1. ~after:3. 10.);
  Alcotest.(check (float 1e-12))
    "a reference-speed host reads raw"
    10.
    (Stats.normalise ~before:Stats.reference_kernel_ms
       ~after:Stats.reference_kernel_ms 10.)

let test_determinism () =
  let lock s = Streams.lock ~seed:s ~rounds:7 in
  let battery s = Streams.battery ~seed:s ~rounds:20 in
  let serve s = Streams.serve ~seed:s ~rounds:2 in
  Alcotest.(check bool) "lock: same seed" true (lock 5 = lock 5);
  Alcotest.(check bool) "lock: other seed" false (lock 5 = lock 6);
  Alcotest.(check bool) "battery: same seed" true (battery 5 = battery 5);
  Alcotest.(check bool) "battery: other seed" false (battery 5 = battery 6);
  Alcotest.(check bool) "serve: same seed" true (serve 5 = serve 5);
  Alcotest.(check bool) "serve: other seed" false (serve 5 = serve 6)

(* The run length the benchmark is configured with (run_seconds). *)
let seconds = 15.

(* [p]'s rank among [n] ops sorted into consecutive class blocks of the
   given sizes lies strictly inside one block, off both of its edges. *)
let inside blocks n p =
  let r = Stats.rank p n in
  let rec go lo = function
    | [] -> false
    | size :: rest ->
        if r <= lo + size then r > lo + 1 && r < lo + size
        else go (lo + size) rest
  in
  go 0 blocks

let counts key ops =
  let h = Hashtbl.create 16 in
  List.iter
    (fun o ->
      let n = Option.value ~default:0 (Hashtbl.find_opt h (key o)) in
      Hashtbl.replace h (key o) (n + 1))
    ops;
  Hashtbl.fold (fun _ n acc -> n :: acc) h []

let equal_blocks name key ops =
  let c = counts key ops in
  let n = List.length ops in
  Alcotest.(check bool) (name ^ ": equal-weight classes") true
    (List.for_all (( = ) (List.hd c)) c);
  Alcotest.(check bool) (name ^ ": p50 inside a class") true (inside c n 0.5);
  Alcotest.(check bool) (name ^ ": p90 inside a class") true (inside c n 0.9)

let test_ranks () =
  let round_ops = List.length Streams.classes in
  let _, lock =
    Streams.lock ~seed:Streams.default_seed
      ~rounds:
        (Streams.rounds ~seconds ~round_ops ~nominal_ms:Lock_wl.nominal_ms)
  in
  equal_blocks "lock" (fun (o : Streams.lock_op) -> (o.circuit, o.style)) lock;
  Alcotest.(check bool) "lock: p90 defined" true
    (List.length lock >= Stats.min_p90_samples);
  let battery =
    Streams.battery ~seed:Streams.default_seed
      ~rounds:
        (Streams.rounds ~seconds ~round_ops:(List.length Streams.subjects)
           ~nominal_ms:Battery_wl.nominal_ms)
  in
  equal_blocks "battery" (fun (s : Streams.subject) -> s.scheme) battery;
  Alcotest.(check bool) "battery: p90 defined" true
    (List.length battery >= Stats.min_p90_samples);
  Alcotest.(check bool) "serve: a daemon's working set under the cache cap"
    true
    (Streams.serve_entries < Shell_core.Pipeline.cache_cap);
  let _, lifetimes =
    Streams.serve ~seed:Streams.default_seed
      ~rounds:
        (Streams.rounds ~seconds ~round_ops:Streams.serve_round_ops
           ~nominal_ms:Serve_wl.nominal_ms)
  in
  let serve = List.concat lifetimes in
  (* every class gets the same requests of each kind *)
  List.iter
    (fun k ->
      equal_blocks
        ("serve " ^ Streams.kind_name k)
        (fun (r : Streams.request) -> (r.key.circuit, r.key.style))
        (List.filter (fun (r : Streams.request) -> r.kind = k) serve))
    [ Streams.Mem; Streams.Disk; Streams.Miss ];
  (* memory hits are the fastest kind and misses the slowest *)
  let n = List.length serve in
  let count k =
    List.length (List.filter (fun (r : Streams.request) -> r.kind = k) serve)
  in
  let blocks = [ count Streams.Mem; count Streams.Disk; count Streams.Miss ] in
  Alcotest.(check bool) "serve: p50 inside the memory hits" true
    (Stats.rank 0.5 n < count Streams.Mem && inside blocks n 0.5);
  Alcotest.(check bool) "serve: p90 inside the misses" true
    (Stats.rank 0.9 n > n - count Streams.Miss && inside blocks n 0.9);
  Alcotest.(check bool) "serve: at least 20 disk hits" true
    (count Streams.Disk >= 20)

(* Failure accounting goes through [Report.op], as in the workloads. *)
let sample = { Timer.raw_ms = 10.; before = 8.; after = 8. }

let test_lock_failure () =
  let op = { Streams.circuit = "DLA"; style = "muxchain"; flow_seed = 3 } in
  let o = Lock_wl.lock (Lock_wl.elaborate op.circuit) (Lock_wl.config op) in
  let r = Report.samples () in
  Report.op r ~traced:false ~ok:(Lock_wl.ok o) sample;
  (* the same result with every bit of its bitstream inverted *)
  let res = o.Lock_wl.result in
  let e = res.Shell_core.Flow.emitted in
  let bits = Shell_fabric.Bitstream.bits e.Shell_fabric.Emit.bitstream in
  let wrong = Shell_fabric.Bitstream.builder () in
  Shell_fabric.Bitstream.append wrong "inverted" (Array.map not bits);
  let bad =
    {
      res with
      Shell_core.Flow.emitted = { e with Shell_fabric.Emit.bitstream = wrong };
    }
  in
  let forced = { o with result = bad; verified = Shell_core.Flow.verify bad } in
  Report.op r ~traced:false ~ok:(Lock_wl.ok forced) sample;
  Alcotest.(check (pair int int))
    "one failed of two" (2, 1) (r.attempted, r.failed);
  Alcotest.(check int) "only the passing op is timed" 1 (List.length r.op_ms)

let test_serve_failure () =
  let module P = Shell_serve.Protocol in
  let pass = "summary\nverify: PASS\n" in
  let r = Report.samples () in
  let record previous resp =
    Report.op r ~traced:false ~ok:(Serve_wl.check ~previous resp) sample
  in
  record None (Ok (P.Result { id = 1; output = pass }));
  record None (Ok (P.Rejected { id = 2; reason = "queue full" }));
  Alcotest.(check (pair int int))
    "a rejection is one failed op" (2, 1) (r.attempted, r.failed);
  let fails what resp previous =
    Alcotest.(check bool) what false (Serve_wl.check ~previous resp)
  in
  fails "failed job" (Ok (P.Failed { id = 3; message = "x" })) None;
  fails "verify fails"
    (Ok (P.Result { id = 4; output = "summary\nverify: FAIL\n" }))
    None;
  fails "bytes differ from an earlier response"
    (Ok (P.Result { id = 5; output = "other\nverify: PASS\n" }))
    (Some pass);
  fails "transport error" (Error "closed") None

(* The result line's metric sets are BENCHMARK.json's, name for name and
   unit for unit, and no two workloads claim one per-layer metric. *)
let test_manifest () =
  let module J = Shell_util.Jsonw in
  let text =
    In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all
  in
  let doc =
    match J.of_string text with Ok d -> d | Error m -> Alcotest.fail m
  in
  let field k = function
    | J.Obj kv -> List.assoc k kv
    | _ -> Alcotest.fail "not an object"
  in
  let str = function J.Str s -> s | _ -> Alcotest.fail "not a string" in
  let metrics kind =
    match field kind doc with
    | J.Arr ms ->
        List.map (fun m -> (str (field "name" m), str (field "unit" m))) ms
    | _ -> Alcotest.fail (kind ^ " is not a list")
  in
  let names = Alcotest.(list (pair string string)) in
  Alcotest.check names "end_to_end" (metrics "end_to_end") Report.end_to_end;
  Alcotest.check names "per_layer" (metrics "per_layer") Manifest.per_layer;
  let unique = List.sort_uniq compare (List.map fst Manifest.per_layer) in
  Alcotest.(check int)
    "per-layer names are unique" (List.length Manifest.per_layer)
    (List.length unique)

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "normalisation" `Quick test_normalise;
          Alcotest.test_case "seed determinism" `Quick test_determinism;
          Alcotest.test_case "rank placement" `Quick test_ranks;
          Alcotest.test_case "manifest" `Quick test_manifest;
        ] );
      ( "failures",
        [
          Alcotest.test_case "forced verify failure" `Quick test_lock_failure;
          Alcotest.test_case "rejected response" `Quick test_serve_failure;
        ] );
    ]
