(* Tests for the staged pass pipeline: per-pass Obs spans and counters,
   abort-at-PnR with prior artifacts intact, and pass-level cache
   reuse producing byte-identical results. *)

module N = Shell_netlist.Netlist
module F = Shell_fabric
module C = Shell_core
module Circ = Shell_circuits
module Diag = Shell_util.Diag
module Obs = Shell_util.Obs

let fir = lazy (Circ.Fir.netlist ())

let fir_cfg () = C.Flow.shell_config ()

let test_pass_names () =
  Alcotest.(check (list string))
    "nine passes"
    [
      "connectivity";
      "selection";
      "extraction";
      "synthesis";
      "pnr";
      "emit";
      "shrink";
      "overhead";
      "lint";
    ]
    C.Pipeline.pass_names

(* Run a staged flow with Obs on; returns the outcome and the per-pass
   spans under the [pipeline] root it recorded. *)
let traced_run cfg nl =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  ignore (Obs.take_spans ());
  let o = C.Pipeline.execute cfg nl in
  match Obs.take_spans () with
  | [ root ] when root.Obs.name = "pipeline" -> (o, root.Obs.children)
  | roots ->
      Alcotest.failf "expected one pipeline root span, got %d"
        (List.length roots)

(* Run [f] with Obs on; returns its result and the pass-cache hits and
   misses it added to the registry's counters. *)
let cache_delta f =
  let count name =
    List.find_map
      (fun (s : Obs.sample) ->
        match s.Obs.value with
        | Obs.Counter n when s.Obs.name = name -> Some n
        | _ -> None)
      (Obs.snapshot ())
    |> Option.value ~default:0
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      ignore (Obs.take_spans ());
      Obs.set_enabled was)
  @@ fun () ->
  let h0 = count "pipeline_cache_hits" and m0 = count "pipeline_cache_misses" in
  let r = f () in
  (r, count "pipeline_cache_hits" - h0, count "pipeline_cache_misses" - m0)

let pass_counter passes pass name =
  let s = List.find (fun (s : Obs.span) -> s.Obs.name = pass) passes in
  List.assoc name s.Obs.counters

let test_trace_counters () =
  C.Pipeline.clear_cache ();
  let o, passes = traced_run (fir_cfg ()) (Lazy.force fir) in
  Alcotest.(check bool) "no failure" true (o.C.Pipeline.failed = None);
  Alcotest.(check (list string))
    "one span per pass, in order" C.Pipeline.pass_names
    (List.map (fun (s : Obs.span) -> s.Obs.name) passes);
  List.iter
    (fun (s : Obs.span) ->
      Alcotest.(check bool)
        (s.Obs.name ^ " has counters")
        true
        (List.exists (fun (k, _) -> k <> "cache_hit") s.Obs.counters);
      Alcotest.(check int)
        (s.Obs.name ^ " cold run misses")
        0
        (List.assoc "cache_hit" s.Obs.counters);
      Alcotest.(check bool)
        (s.Obs.name ^ " time non-negative")
        true (s.Obs.seconds >= 0.0))
    passes;
  let counter = pass_counter passes in
  Alcotest.(check bool) "cells counted" true (counter "connectivity" "cells" > 0);
  Alcotest.(check bool) "luts counted" true (counter "synthesis" "luts" > 0);
  Alcotest.(check bool)
    "config bits counted" true
    (counter "emit" "config_bits" > 0);
  Alcotest.(check bool)
    "routed nets counted" true
    (counter "pnr" "routed_nets" > 0)

let test_forced_pnr_failure () =
  (* pin a 1x1 fabric: the FIR mapping cannot fit, and strict mode
     must abort the pipeline at the pnr pass *)
  let tiny =
    { F.Fabric.style = F.Style.Fabulous_muxchain; cols = 1; rows = 1; chain_slots = 0 }
  in
  let o =
    C.Pipeline.execute ~strict_fit:true ~fabric:tiny (fir_cfg ())
      (Lazy.force fir)
  in
  (match o.C.Pipeline.failed with
  | None -> Alcotest.fail "expected a pnr abort"
  | Some d ->
      Alcotest.(check (option string))
        "failing pass named" (Some "pnr") d.Diag.pass;
      (match d.Diag.payload with
      | F.Fabric.Shortage { demand; capacity; _ } ->
          Alcotest.(check bool) "demand over capacity" true (demand > capacity)
      | _ -> Alcotest.fail "expected a typed Shortage payload"));
  let a = o.C.Pipeline.artifacts in
  Alcotest.(check bool) "analysis intact" true (a.C.Pipeline.analysis <> None);
  Alcotest.(check bool) "choice intact" true (a.C.Pipeline.choice <> None);
  Alcotest.(check bool) "cut intact" true (a.C.Pipeline.cut <> None);
  Alcotest.(check bool) "mapped intact" true (a.C.Pipeline.mapped <> None);
  Alcotest.(check bool) "no emission" true (a.C.Pipeline.emitted = None);
  Alcotest.(check bool) "no overhead" true (a.C.Pipeline.overhead = None)

let summary r = Format.asprintf "%a" C.Flow.pp_summary r

let test_cache_reuse_identical () =
  let nl = Lazy.force fir in
  let cfg = fir_cfg () in
  C.Pipeline.clear_cache ();
  let cold, h0, m0 =
    cache_delta (fun () -> C.Flow.of_outcome (C.Pipeline.execute cfg nl))
  in
  Alcotest.(check int) "cold run misses every pass" 0 h0;
  Alcotest.(check bool) "cold run fills the cache" true (m0 > 0);
  let warm, h1, _ =
    cache_delta (fun () -> C.Flow.of_outcome (C.Pipeline.execute cfg nl))
  in
  Alcotest.(check bool) "warm run hits the cache" true (h1 > 0);
  let uncached = C.Flow.of_outcome (C.Pipeline.execute ~use_cache:false cfg nl) in
  Alcotest.(check string)
    "cached byte-identical to uncached" (summary uncached) (summary warm);
  Alcotest.(check string)
    "warm byte-identical to cold" (summary cold) (summary warm)

let test_downstream_change_reuses_upstream () =
  (* changing only the seed must reuse connectivity..synthesis and
     re-run pnr/emit (their keys include the seed) *)
  let nl = Lazy.force fir in
  let cfg = fir_cfg () in
  C.Pipeline.clear_cache ();
  let _ = C.Pipeline.execute cfg nl in
  let _, passes = traced_run { cfg with C.Flow.seed = 7 } nl in
  let hit name = pass_counter passes name "cache_hit" = 1 in
  List.iter
    (fun p -> Alcotest.(check bool) (p ^ " reused") true (hit p))
    [ "connectivity"; "selection"; "extraction"; "synthesis" ];
  List.iter
    (fun p -> Alcotest.(check bool) (p ^ " re-run") false (hit p))
    [ "pnr"; "emit"; "shrink" ]

let test_explore_cache_byte_identical () =
  (* the GA sweep with a warm pass cache must produce the same tables
     as a cold one: candidates share upstream passes, results do not
     drift *)
  let nl = Circ.Fir.netlist () in
  let render (o : C.Explore.outcome) =
    String.concat "\n"
      (List.map
         (fun (c : C.Explore.candidate) ->
           Format.asprintf "%s A=%.3f P=%.3f D=%.3f key=%d" c.C.Explore.label
             c.C.Explore.overhead.C.Overhead.area
             c.C.Explore.overhead.C.Overhead.power
             c.C.Explore.overhead.C.Overhead.delay c.C.Explore.key_bits)
         o.C.Explore.evaluated)
  in
  C.Pipeline.clear_cache ();
  let cold, h, _ =
    cache_delta (fun () ->
        render (C.Explore.search ~generations:2 ~population:6 nl))
  in
  Alcotest.(check bool) "sweep hits the pass cache" true (h > 0);
  let warm = render (C.Explore.search ~generations:2 ~population:6 nl) in
  Alcotest.(check string) "cold and warm sweeps identical" cold warm

(* ---- cache internals: single-flight under cap eviction ---- *)

let dummy_product i =
  C.Pipeline.P_choice
    {
      C.Selection.route_blocks = [ i ];
      lgc_blocks = [];
      label = "dummy";
      coverage = 0.0;
      lut_estimate = 0.0;
    }

(* A cap-triggered eviction must drop only Ready entries: a Pending
   slot is another domain's in-flight claim. The old Hashtbl.reset
   wiped claims, so a waiter would re-claim and recompute the key. *)
let test_eviction_preserves_claims () =
  C.Pipeline.clear_cache ();
  let key = "testpass|single-flight" in
  Alcotest.(check bool)
    "key claimed" true
    (C.Pipeline.cache_find key = None);
  (* overflow the cap with Ready fillers; each add past the cap evicts *)
  for i = 0 to C.Pipeline.cache_cap + 8 do
    C.Pipeline.cache_add (Printf.sprintf "filler|%d" i) (dummy_product i)
  done;
  Alcotest.(check bool)
    "claim survives cap eviction" true
    (C.Pipeline.cache_slot key = `Pending);
  (* a second consumer must wait for the claim owner, not recompute:
     it blocks until cache_add lands and then sees the owner's product *)
  let waiter =
    Domain.spawn (fun () ->
        match C.Pipeline.cache_find key with
        | Some (C.Pipeline.P_choice c) -> c.C.Selection.route_blocks
        | _ -> [])
  in
  C.Pipeline.cache_add key (dummy_product 4242);
  Alcotest.(check (list int)) "waiter got the owner's product" [ 4242 ]
    (Domain.join waiter);
  Alcotest.(check bool)
    "key is ready" true
    (C.Pipeline.cache_slot key = `Ready);
  C.Pipeline.clear_cache ()

(* cache_abort re-opens a claimed key *)
let test_abort_reopens () =
  C.Pipeline.clear_cache ();
  let key = "testpass|abort" in
  Alcotest.(check bool) "claimed" true (C.Pipeline.cache_find key = None);
  C.Pipeline.cache_abort key;
  Alcotest.(check bool)
    "absent after abort" true
    (C.Pipeline.cache_slot key = `Absent);
  C.Pipeline.clear_cache ()

(* ---- spill store hooks ---- *)

(* An in-memory store is enough to exercise the save/load wiring:
   after clear_cache (the in-process stand-in for a restart) the
   product must come back from the store as a hit, not a claim. *)
let test_store_round_trip () =
  let blobs : (string, string) Hashtbl.t = Hashtbl.create 8 in
  C.Pipeline.set_store
    (Some
       {
         C.Pipeline.save = (fun k b -> Hashtbl.replace blobs k b);
         load = (fun k -> Hashtbl.find_opt blobs k);
       });
  Fun.protect ~finally:(fun () ->
      C.Pipeline.set_store None;
      C.Pipeline.clear_cache ())
  @@ fun () ->
  C.Pipeline.clear_cache ();
  let key = "testpass|spill" in
  Alcotest.(check bool) "cold claim" true (C.Pipeline.cache_find key = None);
  C.Pipeline.cache_add key (dummy_product 7);
  Alcotest.(check int) "spilled" 1 (Hashtbl.length blobs);
  C.Pipeline.clear_cache ();
  let restored, h, m = cache_delta (fun () -> C.Pipeline.cache_find key) in
  (match restored with
  | Some (C.Pipeline.P_choice c) ->
      Alcotest.(check (list int)) "restored product" [ 7 ]
        c.C.Selection.route_blocks
  | Some _ -> Alcotest.fail "wrong product from store"
  | None ->
      C.Pipeline.cache_abort key;
      Alcotest.fail "store miss after clear_cache");
  Alcotest.(check int) "disk load counts as a hit" 1 h;
  Alcotest.(check int) "no miss" 0 m;
  (* corrupt blob degrades to a miss (claim), never an error *)
  Hashtbl.filter_map_inplace (fun _ _ -> Some "corrupt") blobs;
  C.Pipeline.clear_cache ();
  Alcotest.(check bool)
    "corrupt blob -> claim" true
    (C.Pipeline.cache_find key = None);
  C.Pipeline.cache_abort key

(* The full flow with a store attached: a cleared in-memory cache is
   reloaded from the store, and the rerun output is byte-identical. *)
let test_store_warm_flow () =
  let blobs : (string, string) Hashtbl.t = Hashtbl.create 64 in
  C.Pipeline.set_store
    (Some
       {
         C.Pipeline.save = (fun k b -> Hashtbl.replace blobs k b);
         load = (fun k -> Hashtbl.find_opt blobs k);
       });
  Fun.protect ~finally:(fun () ->
      C.Pipeline.set_store None;
      C.Pipeline.clear_cache ())
  @@ fun () ->
  C.Pipeline.clear_cache ();
  let nl = Lazy.force fir in
  let cfg = fir_cfg () in
  let summary r = Format.asprintf "%a" C.Flow.pp_summary r in
  let cold = summary (C.Flow.of_outcome (C.Pipeline.execute cfg nl)) in
  Alcotest.(check bool) "products spilled" true (Hashtbl.length blobs > 0);
  C.Pipeline.clear_cache ();
  let warm, h, m =
    cache_delta (fun () ->
        summary (C.Flow.of_outcome (C.Pipeline.execute cfg nl)))
  in
  Alcotest.(check string) "store-warm run byte-identical" cold warm;
  Alcotest.(check bool) "served from store" true (h > 0);
  Alcotest.(check int) "no recompute" 0 m

(* A blob in the untagged key layout (format 1: [Marshal (key, product)]
   under the bare cache key) is never read: the pass recomputes and the
   disk-hit counter stays put. *)
let test_store_ignores_untagged_keys () =
  let nl = Lazy.force fir in
  let key = "connectivity|" ^ N.fingerprint nl in
  let old_blob =
    Marshal.to_string
      (key, C.Pipeline.P_analysis (C.Connectivity.analyze nl))
      []
  in
  let blobs : (string, string) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace blobs key old_blob;
  let asked = ref [] in
  C.Pipeline.set_store
    (Some
       {
         C.Pipeline.save = (fun k b -> Hashtbl.replace blobs k b);
         load =
           (fun k ->
             asked := k :: !asked;
             Hashtbl.find_opt blobs k);
       });
  Fun.protect ~finally:(fun () ->
      C.Pipeline.set_store None;
      C.Pipeline.clear_cache ())
  @@ fun () ->
  C.Pipeline.clear_cache ();
  let disk_hits () =
    List.find_map
      (fun (s : Obs.sample) ->
        match s.Obs.value with
        | Obs.Counter n when s.Obs.name = "pipeline_cache_disk_hits" -> Some n
        | _ -> None)
      (Obs.snapshot ())
    |> Option.value ~default:0
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let d0 = disk_hits () in
  let o, passes =
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
    let o, passes = traced_run (fir_cfg ()) nl in
    Alcotest.(check int) "no disk hit" d0 (disk_hits ());
    (o, passes)
  in
  Alcotest.(check bool) "flow succeeds" true (o.C.Pipeline.failed = None);
  Alcotest.(check int) "connectivity recomputed" 0
    (pass_counter passes "connectivity" "cache_hit");
  Alcotest.(check bool) "the untagged key is never asked for" false
    (List.mem key !asked)

let suite =
  [
    ("pass names", `Quick, test_pass_names);
    ("trace counters populated", `Quick, test_trace_counters);
    ("forced pnr failure", `Quick, test_forced_pnr_failure);
    ("cache reuse byte-identical", `Quick, test_cache_reuse_identical);
    ("downstream change reuses upstream", `Quick, test_downstream_change_reuses_upstream);
    ("explore cache byte-identical", `Slow, test_explore_cache_byte_identical);
    ("cap eviction preserves claims", `Quick, test_eviction_preserves_claims);
    ("abort reopens claim", `Quick, test_abort_reopens);
    ("spill store round trip", `Quick, test_store_round_trip);
    ("spill store warm flow", `Quick, test_store_warm_flow);
    ("spill store ignores untagged keys", `Quick, test_store_ignores_untagged_keys);
  ]
