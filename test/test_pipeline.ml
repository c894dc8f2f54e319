(* Tests for the flow's nine passes and the pass cache: per-pass Obs
   spans and counters, abort at PnR naming the pass, and pass-level
   cache reuse producing byte-identical results. *)

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

(* Run the flow with Obs on; returns its result and the per-pass spans
   under the [pipeline] root it recorded. *)
let traced_run cfg nl =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  ignore (Obs.take_spans ());
  let r = C.Flow.run cfg nl in
  match Obs.take_spans () with
  | [ root ] when root.Obs.name = "pipeline" -> (r, root.Obs.children)
  | roots ->
      Alcotest.failf "expected one pipeline root span, got %d"
        (List.length roots)

let counter name =
  List.find_map
    (fun (s : Obs.sample) ->
      match s.Obs.value with
      | Obs.Counter n when s.Obs.name = name -> Some n
      | _ -> None)
    (Obs.snapshot ())
  |> Option.value ~default:0

let watched =
  [
    "flow_verifications";
    "sim_words";
    "pipeline_cache_hits";
    "pipeline_cache_misses";
    "pipeline_cache_disk_hits";
    "pipeline_cache_disk_writes";
  ]

(* Run [f] with Obs on; returns its result and how far it moved each
   [watched] counter, by name. *)
let moved f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      ignore (Obs.take_spans ());
      Obs.set_enabled was)
  @@ fun () ->
  let before = List.map counter watched in
  let r = f () in
  (r, List.map2 (fun name b -> (name, counter name - b)) watched before)

(* the pass-cache hits and misses [f] added *)
let cache_delta f =
  let r, d = moved f in
  (r, List.assoc "pipeline_cache_hits" d, List.assoc "pipeline_cache_misses" d)

let pass_counter passes pass name =
  let s = List.find (fun (s : Obs.span) -> s.Obs.name = pass) passes in
  List.assoc name s.Obs.counters

let test_trace_counters () =
  C.Pipeline.clear_cache ();
  let _, passes = traced_run (fir_cfg ()) (Lazy.force fir) in
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
  match C.Flow.run ~strict_fit:true ~fabric:tiny (fir_cfg ()) (Lazy.force fir) with
  | _ -> Alcotest.fail "expected a pnr abort"
  | exception Diag.Error d -> (
      Alcotest.(check (option string))
        "failing pass named" (Some "pnr") d.Diag.pass;
      match d.Diag.payload with
      | F.Fabric.Shortage { demand; capacity; _ } ->
          Alcotest.(check bool) "demand over capacity" true (demand > capacity)
      | _ -> Alcotest.fail "expected a typed Shortage payload")

let summary r = Format.asprintf "%a" C.Flow.pp_summary r

let test_cache_reuse_identical () =
  let nl = Lazy.force fir in
  let cfg = fir_cfg () in
  C.Pipeline.clear_cache ();
  let cold, h0, m0 = cache_delta (fun () -> C.Flow.run cfg nl) in
  Alcotest.(check int) "cold run misses every pass" 0 h0;
  Alcotest.(check bool) "cold run fills the cache" true (m0 > 0);
  let warm, h1, _ = cache_delta (fun () -> C.Flow.run cfg nl) in
  Alcotest.(check bool) "warm run hits the cache" true (h1 > 0);
  let uncached = C.Flow.run ~use_cache:false cfg nl in
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
  let _ = C.Flow.run cfg nl in
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

(* ---- every config field reaches every key that depends on it ---- *)

(* what a run reports: the summary, the exact A/P/D and the lint JSON *)
let observed (r : C.Flow.result) =
  let o = r.C.Flow.overhead in
  ( summary r,
    Printf.sprintf "%h %h %h" o.C.Overhead.area o.C.Overhead.power
      o.C.Overhead.delay,
    Shell_util.Jsonw.to_string (Shell_lint.Lint.report_json r.C.Flow.lint) )

(* [shell_config ()] with one field changed *)
let single_field_variants (t : Circ.Catalog.tfr) =
  let base = C.Flow.shell_config () in
  let auto ?(coeffs = C.Score.shell_choice) ?(lgc_depth = 0) () =
    { base with C.Flow.target = C.Flow.Auto { coeffs; lgc_depth } }
  in
  let route = t.Circ.Catalog.route in
  [
    ("openfpga", { base with C.Flow.style = F.Style.Openfpga });
    ("fabulous", { base with C.Flow.style = F.Style.Fabulous_std });
    ("muxchain", { base with C.Flow.style = F.Style.Fabulous_muxchain });
    ("no shrink", { base with C.Flow.shrink = false });
    ("seed 7", { base with C.Flow.seed = 7 });
    ("auto c1", auto ~coeffs:(List.assoc "c1" C.Score.presets) ());
    ("auto lgc_depth 1", auto ~lgc_depth:1 ());
    ( "fixed",
      {
        base with
        C.Flow.target =
          C.Flow.Fixed
            { route; lgc = t.Circ.Catalog.lgc; label = t.Circ.Catalog.label };
      } );
    ( "route with lgc depth 1",
      {
        base with
        C.Flow.target = C.Flow.Route_with_lgc_depth { route; depth = 1 };
      } );
  ]

(* After a [shell_config ()] run warms the cache, each single-field
   variant run through the cache must report what the same variant
   reports uncached, and verify: a key that leaves out a field the pass
   reads hands back the warm run's product. *)
let test_config_fields_reach_keys bench () =
  let e =
    match Circ.Catalog.find bench with
    | Some e -> e
    | None -> Alcotest.failf "no catalog entry %s" bench
  in
  let nl = e.Circ.Catalog.netlist () in
  C.Pipeline.clear_cache ();
  ignore (C.Flow.run (C.Flow.shell_config ()) nl);
  List.iter
    (fun (what, cfg) ->
      let cached = C.Flow.run cfg nl in
      let uncached = C.Flow.run ~use_cache:false cfg nl in
      let s, o, l = observed cached and s', o', l' = observed uncached in
      Alcotest.(check string) (what ^ ": summary") s' s;
      Alcotest.(check string) (what ^ ": overhead") o' o;
      Alcotest.(check string) (what ^ ": lint") l' l;
      Alcotest.(check bool) (what ^ ": verify") true (C.Flow.verify cached))
    (single_field_variants e.Circ.Catalog.tfr_shell);
  C.Pipeline.clear_cache ()

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
  let cold = summary (C.Flow.run cfg nl) in
  Alcotest.(check bool) "products spilled" true (Hashtbl.length blobs > 0);
  C.Pipeline.clear_cache ();
  let warm, h, m = cache_delta (fun () -> summary (C.Flow.run cfg nl)) in
  Alcotest.(check string) "store-warm run byte-identical" cold warm;
  Alcotest.(check bool) "served from store" true (h > 0);
  Alcotest.(check int) "no recompute" 0 m

(* A blob stored under an older key layout is never read: the pass
   recomputes and the disk-hit counter stays put. [tag] is the old
   format's key prefix: format 1 keys were untagged, format 2 keys start
   with [p2|] (its [Netlist.t] had no fingerprint memo), format 3 keys
   with [p3|] (its [Connectivity.t] carried the analyzed netlist). *)
let store_ignores_old_format ~tag () =
  let nl = Lazy.force fir in
  let key = tag ^ "connectivity|" ^ N.fingerprint nl in
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
  let disk_hits () = counter "pipeline_cache_disk_hits" in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let d0 = disk_hits () in
  let passes =
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
    let _, passes = traced_run (fir_cfg ()) nl in
    Alcotest.(check int) "no disk hit" d0 (disk_hits ());
    passes
  in
  Alcotest.(check int) "connectivity recomputed" 0
    (pass_counter passes "connectivity" "cache_hit");
  Alcotest.(check bool) "the old key is never asked for" false
    (List.mem key !asked)

(* ---- verify verdicts ride with the overhead slot ---- *)

let check_moved what expected deltas =
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s" what name)
        (Option.value (List.assoc_opt name expected) ~default:0)
        (List.assoc name deltas))
    watched

(* [verify] simulated: one verification, word simulation ran, and no
   pass-cache counter moved *)
let check_simulated what deltas =
  Alcotest.(check int) (what ^ ": one verification") 1
    (List.assoc "flow_verifications" deltas);
  Alcotest.(check bool) (what ^ ": words simulated") true
    (List.assoc "sim_words" deltas > 0);
  check_moved what
    [ ("flow_verifications", 1); ("sim_words", List.assoc "sim_words" deltas) ]
    deltas

let run_flow ?use_cache () = C.Flow.run ?use_cache (fir_cfg ()) (Lazy.force fir)

(* Two runs of one config on one design share every product through the
   memory cache, so the second verify answers from the overhead slot:
   the same verdict, no simulation, no cache counter moved. *)
let test_verdict_reused () =
  C.Pipeline.clear_cache ();
  let r1, cold = moved (fun () -> run_flow ()) in
  let r2, warm = moved (fun () -> run_flow ()) in
  let passes = List.length C.Pipeline.pass_names in
  check_moved "cold run" [ ("pipeline_cache_misses", passes) ] cold;
  check_moved "warm run" [ ("pipeline_cache_hits", passes) ] warm;
  Alcotest.(check bool) "products shared" true
    (r1.C.Flow.locked_full == r2.C.Flow.locked_full
    && r1.C.Flow.emitted == r2.C.Flow.emitted);
  let v1, first = moved (fun () -> C.Flow.verify r1) in
  check_simulated "first verify" first;
  let v2, second = moved (fun () -> C.Flow.verify r2) in
  check_moved "second verify" [] second;
  Alcotest.(check bool) "PASS" true v1;
  Alcotest.(check bool) "same verdict" v1 v2;
  C.Pipeline.clear_cache ()

(* A verdict is returned only for the very products and depth it
   checked. *)
let test_verdict_tags () =
  C.Pipeline.clear_cache ();
  let r = run_flow () in
  ignore (C.Flow.verify r);
  let e = r.C.Flow.emitted in
  let inverted =
    let b = F.Bitstream.builder () in
    F.Bitstream.append b "inverted"
      (Array.map not (F.Bitstream.bits e.F.Emit.bitstream));
    { r with C.Flow.emitted = { e with F.Emit.bitstream = b } }
  in
  let v, d = moved (fun () -> C.Flow.verify inverted) in
  check_simulated "inverted bitstream" d;
  Alcotest.(check bool) "inverted bitstream FAILs" false v;
  let v, d = moved (fun () -> C.Flow.verify inverted) in
  check_moved "inverted bitstream again" [] d;
  Alcotest.(check bool) "its own verdict kept" false v;
  let v, d = moved (fun () -> C.Flow.verify r) in
  check_moved "the result itself again" [] d;
  Alcotest.(check bool) "still PASS" true v;
  let same_emitted =
    { r with C.Flow.emitted = { e with F.Emit.locked = e.F.Emit.locked } }
  in
  let v, d = moved (fun () -> C.Flow.verify same_emitted) in
  check_simulated "an equal copy of emitted" d;
  Alcotest.(check bool) "equal copy PASSes" true v;
  let other_original = { r with C.Flow.original = N.copy r.C.Flow.original } in
  let v, d = moved (fun () -> C.Flow.verify other_original) in
  check_simulated "another original" d;
  Alcotest.(check bool) "another original PASSes" true v;
  C.Pipeline.clear_cache ()

(* Another depth is another verdict; a slot keeps the four newest. *)
let test_verdict_depth () =
  C.Pipeline.clear_cache ();
  let r = run_flow () in
  let _, d = moved (fun () -> C.Flow.verify r) in
  check_simulated "default depth" d;
  let _, d = moved (fun () -> C.Flow.verify ~runs:4 r) in
  check_simulated "other runs" d;
  let _, d = moved (fun () -> C.Flow.verify ~cycles:12 r) in
  check_simulated "other cycles" d;
  let _, d = moved (fun () -> C.Flow.verify ~runs:4 r) in
  check_moved "other runs again" [] d;
  let _, d = moved (fun () -> C.Flow.verify r) in
  check_moved "default depth again" [] d;
  List.iter (fun runs -> ignore (C.Flow.verify ~runs r)) [ 2; 3 ];
  let _, d = moved (fun () -> C.Flow.verify r) in
  check_simulated "the oldest of five verdicts was dropped" d;
  let _, d = moved (fun () -> C.Flow.verify ~runs:3 r) in
  check_moved "a newer one was kept" [] d;
  C.Pipeline.clear_cache ()

(* With the cache off there is no slot: every verify simulates. *)
let test_verdict_uncached () =
  C.Pipeline.clear_cache ();
  let r1 = run_flow ~use_cache:false () and r2 = run_flow ~use_cache:false () in
  List.iter
    (fun (what, r) ->
      let v, d = moved (fun () -> C.Flow.verify r) in
      check_simulated what d;
      Alcotest.(check bool) (what ^ " PASSes") true v)
    [ ("first run", r1); ("second run", r2); ("first run again", r1) ]

(* The verdicts go with their slot: after clear_cache, and on products
   reloaded from the spill store, the next verify simulates. *)
let test_verdict_cleared () =
  C.Pipeline.clear_cache ();
  let r = run_flow () in
  ignore (C.Flow.verify r);
  C.Pipeline.clear_cache ();
  let _, d = moved (fun () -> C.Flow.verify r) in
  check_simulated "after clear_cache" d;
  let _, d = moved (fun () -> C.Flow.verify r) in
  check_simulated "slot still gone" d;
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
  let passes = List.length C.Pipeline.pass_names in
  let cold, d = moved (fun () -> run_flow ()) in
  check_moved "spilling run"
    [ ("pipeline_cache_misses", passes); ("pipeline_cache_disk_writes", passes) ]
    d;
  let _, d = moved (fun () -> C.Flow.verify cold) in
  check_simulated "spilling run's verify" d;
  C.Pipeline.clear_cache ();
  let warm, d = moved (fun () -> run_flow ()) in
  check_moved "reload"
    [ ("pipeline_cache_hits", passes); ("pipeline_cache_disk_hits", passes) ]
    d;
  let v, d = moved (fun () -> C.Flow.verify warm) in
  check_simulated "verify after a reload" d;
  Alcotest.(check bool) "reloaded products PASS" true v;
  let _, d = moved (fun () -> C.Flow.verify warm) in
  check_moved "reloaded verdict reused" [] d

(* The slot holds the verdicts, nothing else does: once the cache is
   cleared and the result dropped, its products can be collected. *)
let test_verdict_retention () =
  C.Pipeline.clear_cache ();
  let w = Weak.create 1 in
  let verify_and_drop () =
    let r = run_flow () in
    ignore (C.Flow.verify r);
    ignore (C.Flow.verify r);
    Weak.set w 0 (Some r.C.Flow.locked_full)
  in
  verify_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "the cache keeps locked_full" true (Weak.check w 0);
  C.Pipeline.clear_cache ();
  Gc.full_major ();
  Alcotest.(check bool) "collected after clear_cache" false (Weak.check w 0)

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
    ("spill store ignores untagged keys", `Quick,
     store_ignores_old_format ~tag:"");
    ("spill store ignores format 2 keys", `Quick,
     store_ignores_old_format ~tag:"p2|");
    ("spill store ignores format 3 keys", `Quick,
     store_ignores_old_format ~tag:"p3|");
    ("verify verdict reused", `Quick, test_verdict_reused);
    ("verify verdict tags", `Quick, test_verdict_tags);
    ("verify verdict depth", `Quick, test_verdict_depth);
    ("verify verdict uncached", `Quick, test_verdict_uncached);
    ("verify verdict cleared", `Quick, test_verdict_cleared);
    ("verify verdict retention", `Quick, test_verdict_retention);
    ("config fields reach keys (FIR)", `Quick,
     test_config_fields_reach_keys "FIR");
    ("config fields reach keys (SPMV)", `Quick,
     test_config_fields_reach_keys "SPMV");
  ]
