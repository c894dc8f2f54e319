module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Style = Shell_fabric.Style
module Fabric = Shell_fabric.Fabric
module Emit = Shell_fabric.Emit
module Resources = Shell_fabric.Resources
module Pnr = Shell_pnr.Pnr
module Lint = Shell_lint.Lint
module Lint_rules = Shell_lint.Rules
module Diag = Shell_util.Diag

type target =
  | Fixed of { route : string list; lgc : string list; label : string }
  | Auto of { coeffs : Score.coeffs; lgc_depth : int }
  | Route_with_lgc_depth of { route : string list; depth : int }

type config = {
  style : Style.t;
  target : target;
  shrink : bool;
  seed : int;
  max_luts : float;
}

let shell_config ?target () =
  {
    style = Style.Fabulous_muxchain;
    target =
      (match target with
      | Some t -> t
      | None -> Auto { coeffs = Score.shell_choice; lgc_depth = 0 });
    shrink = true;
    seed = 0x51e11;
    max_luts = 96.0;
  }

(* the cache key of the run's overhead product, where [Flow.verify]
   keeps its verdicts (see [verdict]); [None] when the run bypassed the
   cache or has not reached that pass *)
type verdict_slot = string option

type artifacts = {
  config : config;
  original : Netlist.t;
  fingerprint : string;
  analysis : Connectivity.t option;
  choice : Selection.choice option;
  cut : Extraction.cut option;
  mapped : Synthesize.mapped option;
  pnr : Pnr.result option;
  emitted : Emit.t option;
  timing : Netlist.t option;
  feedthroughs : int option;
  resources : Resources.t option;
  overhead : Overhead.t option;
  locked_full : Netlist.t option;
  lint : Lint.report option;
  verdicts : verdict_slot;
}

type outcome = { artifacts : artifacts; failed : Diag.t option }

let pass_names =
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

(* ------------------------------------------------------------------ *)
(* Pass-level cache: keyed by (pass name, fingerprint of the pass's
   inputs). Passes are pure functions of their fingerprinted inputs,
   so a hit returns the identical artifact a fresh run would produce —
   which is what keeps cached and uncached executions byte-identical.
   Shared across domains (Explore.search evaluates candidates on the
   PR-1 pool), hence the mutex.

   The cache is single-flight: a lookup that finds another domain
   already computing the same key blocks until that computation lands
   instead of recomputing. Besides saving the duplicate work, this
   makes the number of pass-body executions a pure function of the
   workload — which is what lets stable Obs counters incremented
   inside pass bodies (pool tasks, emitted bitstream bits) stay
   byte-identical across SHELL_JOBS settings. *)

(* Spilled products are unmarshalled at this type, so any change to a
   product type (Netlist.t included) must bump [store_format] below. *)
type product =
  | P_analysis of Connectivity.t
  | P_choice of Selection.choice
  | P_cut of Extraction.cut
  | P_mapped of Synthesize.mapped
  | P_pnr of Pnr.result
  | P_emit of Emit.t * Netlist.t
  | P_shrink of int * Resources.t
  | P_overhead of Overhead.t * Netlist.t
  | P_lint of Lint.report

(* A [Flow.verify] verdict, tagged with what it checked: the three
   products by identity, the simulation depth by value. *)
type verdict = {
  checked_original : Netlist.t;
  checked_locked_full : Netlist.t;
  checked_emitted : Emit.t;
  runs : int;
  cycles : int;
  equivalent : bool;
}

(* [verdicts] is non-empty only on an overhead slot, the one holding
   [locked_full]; it is never spilled (see [verdict] below). *)
type entry = { product : product; mutable verdicts : verdict list }
type slot = Ready of entry | Pending

let ready product = Ready { product; verdicts = [] }

let cache : (string, slot) Hashtbl.t = Hashtbl.create 251
let cache_lock = Mutex.create ()
let cache_landed = Condition.create ()
let cache_cap = 512

module Obs = Shell_util.Obs

(* Hit/miss splits survive single-flight deterministically in the
   common case, but cap evictions and failed computations re-open keys
   whose timing is scheduling-dependent — so they stay unstable. *)
let m_cache_hits = Obs.counter ~help:"pass-cache hits" "pipeline_cache_hits"

let m_cache_misses =
  Obs.counter ~help:"pass-cache misses" "pipeline_cache_misses"

let m_cache_bytes =
  Obs.counter ~help:"bytes of artifacts added to the pass cache"
    "pipeline_cache_bytes"

let m_passes =
  Obs.counter ~stable:true ~help:"pipeline passes processed (cached or not)"
    "pipeline_passes"

let m_cache_disk_writes =
  Obs.counter ~help:"pass-cache entries spilled to the on-disk store"
    "pipeline_cache_disk_writes"

let m_cache_disk_hits =
  Obs.counter ~help:"pass-cache misses served from the on-disk store"
    "pipeline_cache_disk_hits"

(* Optional content-addressed spill store (the serve daemon attaches
   one so cache hits survive restarts). Blobs are opaque here: this
   module marshals [(key, product)] pairs and the store only moves
   bytes. Both directions swallow store failures — a broken disk
   cache must degrade to a cold cache, never break the pipeline. *)
type store = {
  save : string -> string -> unit;
  load : string -> string option;
}

let store_ref : store option ref = ref None
let set_store s = store_ref := s

(* Format tag prefixed to every key handed to the store (format 1 keys
   were untagged; format 3 is the [Netlist.t] that memoizes its
   fingerprint). A blob written by a binary with other product types
   then sits under another key, so it is never read back at the wrong
   type. *)
let store_format = "p3|"

let env_cache_enabled () =
  match Sys.getenv_opt "SHELL_PASS_CACHE" with
  | Some ("0" | "" | "false") -> false
  | Some _ | None -> true

let clear_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Condition.broadcast cache_landed;
  Mutex.unlock cache_lock

(* the computation claimed by [cache_find] failed: re-open the key so
   waiters retry it themselves *)
let cache_abort key =
  Mutex.lock cache_lock;
  (match Hashtbl.find_opt cache key with
  | Some Pending -> Hashtbl.remove cache key
  | Some (Ready _) | None -> ());
  Condition.broadcast cache_landed;
  Mutex.unlock cache_lock

(* Disk probe for a freshly claimed key, run OUTSIDE [cache_lock] so
   store I/O never blocks other domains' cache traffic. The blob
   carries its own key so a store collision/corruption can only
   degrade to a miss. *)
let store_load key =
  match !store_ref with
  | None -> None
  | Some st -> (
      let key = store_format ^ key in
      match st.load key with
      | None | (exception _) -> None
      | Some blob -> (
          match (Marshal.from_string blob 0 : string * product) with
          | k, p when String.equal k key -> Some p
          | _ | (exception _) -> None))

let store_save key product =
  match !store_ref with
  | None -> ()
  | Some st -> (
      let key = store_format ^ key in
      match Marshal.to_string (key, product) [] with
      | exception _ -> ()
      | blob -> (
          match st.save key blob with
          | () -> Obs.incr m_cache_disk_writes
          | exception _ -> ()))

(* Cap housekeeping: evict only [Ready] entries. A [Pending] slot is
   another domain's in-flight claim — wiping it (the old
   [Hashtbl.reset]) violated single-flight: waiters on the vanished
   slot re-claimed and recomputed the key, racing the original
   owner's [cache_add]/[cache_abort]. Call with [cache_lock] held. *)
let evict_ready_if_full () =
  if Hashtbl.length cache >= cache_cap then
    Hashtbl.filter_map_inplace
      (fun _ slot -> match slot with Ready _ -> None | Pending -> Some slot)
      cache

(* [Some p] on a hit (including waiting out another domain's in-flight
   computation of the same key, and including an entry loaded from
   the spill store); [None] claims the key — the caller must follow up
   with [cache_add] or [cache_abort]. *)
let cache_find key =
  Mutex.lock cache_lock;
  let rec look () =
    match Hashtbl.find_opt cache key with
    | Some (Ready { product; _ }) ->
        Obs.incr m_cache_hits;
        `Hit product
    | Some Pending ->
        Condition.wait cache_landed cache_lock;
        look ()
    | None ->
        Hashtbl.replace cache key Pending;
        `Claimed
  in
  let r = look () in
  Mutex.unlock cache_lock;
  match r with
  | `Hit p -> Some p
  | `Claimed -> (
      match store_load key with
      | Some p ->
          Mutex.lock cache_lock;
          evict_ready_if_full ();
          Hashtbl.replace cache key (ready p);
          Obs.incr m_cache_hits;
          Obs.incr m_cache_disk_hits;
          Condition.broadcast cache_landed;
          Mutex.unlock cache_lock;
          Some p
      | None ->
          Obs.incr m_cache_misses;
          None)

let cache_add key product =
  if Obs.enabled () then
    Obs.add m_cache_bytes (8 * Obj.reachable_words (Obj.repr product));
  Mutex.lock cache_lock;
  evict_ready_if_full ();
  Hashtbl.replace cache key (ready product);
  Condition.broadcast cache_landed;
  Mutex.unlock cache_lock;
  store_save key product

let cache_slot key =
  Mutex.lock cache_lock;
  let r =
    match Hashtbl.find_opt cache key with
    | Some (Ready _) -> `Ready
    | Some Pending -> `Pending
    | None -> `Absent
  in
  Mutex.unlock cache_lock;
  r

(* ------------------------------------------------------------------ *)
(* Verify verdicts. [Flow.verify] keeps each verdict on the memory slot
   of the overhead product whose [locked_full] it checked, so a warm
   request whose products all come from memory answers from the slot
   instead of simulating again. The verdicts live and die with the slot:
   never spilled (a disk hit lands on a fresh slot and verifies once),
   dropped with it by [clear_cache] and by the cap wipe, and never
   counted by the pipeline_cache_* counters. A verdict is returned only
   for the very products it checked, so a result copied with another
   bitstream or original verifies afresh. *)

(* bounds what one slot holds when the same design keeps arriving as a
   fresh netlist (parsed Verilog is never memoized): each such request
   misses on [checked_original] *)
let verdicts_cap = 4

let verdict (slot : verdict_slot) ~original ~locked_full ~emitted ~runs
    ~cycles check =
  let matches v =
    v.checked_original == original
    && v.checked_locked_full == locked_full
    && v.checked_emitted == emitted && v.runs = runs && v.cycles = cycles
  in
  (* [Some] only while the slot holds the product [locked_full] came
     from *)
  let with_slot f =
    match slot with
    | None -> None
    | Some key ->
        Mutex.lock cache_lock;
        let r =
          match Hashtbl.find_opt cache key with
          | Some (Ready ({ product = P_overhead (_, l); _ } as r))
            when l == locked_full ->
              Some (f r)
          | Some (Ready _ | Pending) | None -> None
        in
        Mutex.unlock cache_lock;
        r
  in
  match with_slot (fun r -> List.find_opt matches r.verdicts) with
  | Some (Some v) -> v.equivalent
  | Some None | None ->
      let equivalent = check () in
      let v =
        {
          checked_original = original;
          checked_locked_full = locked_full;
          checked_emitted = emitted;
          runs;
          cycles;
          equivalent;
        }
      in
      ignore
        (with_slot (fun r ->
             if not (List.exists matches r.verdicts) then
               r.verdicts <-
                 List.filteri (fun i _ -> i < verdicts_cap) (v :: r.verdicts)));
      equivalent

(* ------------------------------------------------------------------ *)
(* Input fingerprints *)

let target_key = function
  | Fixed { route; lgc; label } ->
      Printf.sprintf "fixed:%s:%s:%s" label (String.concat "," route)
        (String.concat "," lgc)
  | Auto { coeffs = c; lgc_depth } ->
      Printf.sprintf "auto:%h,%h,%h,%h,%h,%h:%d" c.Score.alpha c.Score.beta
        c.Score.gamma c.Score.lambda c.Score.xi c.Score.sigma lgc_depth
  | Route_with_lgc_depth { route; depth } ->
      Printf.sprintf "rwd:%s:%d" (String.concat "," route) depth

let fabric_key = function
  | None -> "-"
  | Some (f : Fabric.t) ->
      Printf.sprintf "%s:%dx%d:%d" (Style.name f.Fabric.style) f.Fabric.cols
        f.Fabric.rows f.Fabric.chain_slots

let choice_key (c : Selection.choice) =
  Printf.sprintf "%s|%s"
    (String.concat "," (List.map string_of_int c.Selection.route_blocks))
    (String.concat "," (List.map string_of_int c.Selection.lgc_blocks))

(* ------------------------------------------------------------------ *)

type ctx = { strict_fit : bool; fabric : Fabric.t option; use_cache : bool }

let the pass = function
  | Some x -> x
  | None -> Diag.failf ~pass "internal: upstream artifact missing"

(* Table VII mechanism: ROUTE <-> LGC traffic that has to leave the
   fabric, traverse the excluded middle logic and come back. Only
   cross-family paths count: a directly-connected (depth-0) pick
   keeps this traffic internal and pays nothing. *)
let count_feedthroughs original (cut : Extraction.cut) route_origins =
  let member = Hashtbl.create 64 in
  List.iter (fun ci -> Hashtbl.replace member ci ()) cut.Extraction.cells;
  let family ci =
    if Cell.origin_matches route_origins (Netlist.cell original ci) then `Route
    else `Lgc
  in
  (* family of each boundary-output driver / boundary-input reader *)
  let in_family = Hashtbl.create 32 in
  List.iter
    (fun (_, net) ->
      List.iter
        (fun ci ->
          if Hashtbl.mem member ci then Hashtbl.replace in_family net (family ci))
        (Netlist.fanout original net))
    cut.Extraction.input_binding;
  let count = ref 0 in
  List.iter
    (fun (_, start) ->
      match Netlist.driver original start with
      | None -> ()
      | Some drv when not (Hashtbl.mem member drv) -> ()
      | Some drv ->
          let out_fam = family drv in
          let seen = Hashtbl.create 64 in
          let hit = ref false in
          let rec go net depth =
            if depth >= 0 && not !hit then begin
              (match Hashtbl.find_opt in_family net with
              | Some fam when fam <> out_fam && net <> start -> hit := true
              | Some _ | None -> ());
              if not !hit then
                List.iter
                  (fun ci ->
                    if
                      (not (Hashtbl.mem member ci)) && not (Hashtbl.mem seen ci)
                    then begin
                      Hashtbl.replace seen ci ();
                      let c = Netlist.cell original ci in
                      if not (Cell.is_sequential c.Cell.kind) then
                        go c.Cell.out (depth - 1)
                    end)
                  (Netlist.fanout original net)
            end
          in
          go start 6;
          if !hit then incr count)
    cut.Extraction.output_binding;
  !count

let routed_nets nl =
  let n = ref 0 in
  for net = 0 to Netlist.num_nets nl - 1 do
    if Netlist.driver nl net <> None && Netlist.fanout nl net <> [] then incr n
  done;
  !n

type pass = {
  name : string;
  key : ctx -> artifacts -> string option;
      (** cache key of the pass's inputs; [None] disables caching *)
  run : ctx -> artifacts -> product;
  counters : artifacts -> (string * int) list;
      (** the pass span's counters; evaluated only while Obs is on *)
}

let p_connectivity =
  {
    name = "connectivity";
    key = (fun _ a -> Some a.fingerprint);
    run = (fun _ a -> P_analysis (Connectivity.analyze a.original));
    counters =
      (fun a ->
        let t = the "connectivity" a.analysis in
        [
          ("cells", Netlist.num_cells a.original);
          ("nets", Netlist.num_nets a.original);
          ("blocks", Array.length t.Connectivity.blocks);
        ]);
  }

let p_selection =
  {
    name = "selection";
    key =
      (fun _ a ->
        Some
          (Printf.sprintf "%s|%s|%h" a.fingerprint (target_key a.config.target)
             a.config.max_luts));
    run =
      (fun _ a ->
        let analysis = the "selection" a.analysis in
        let choice =
          match a.config.target with
          | Fixed { route; lgc; label } ->
              Selection.fixed analysis ~label ~route ~lgc ()
          | Auto { coeffs; lgc_depth } ->
              Selection.auto analysis ~coeffs ~lgc_depth
                ~max_luts:a.config.max_luts ()
          | Route_with_lgc_depth { route; depth } ->
              Selection.with_lgc_depth analysis ~route ~depth
        in
        P_choice choice);
    counters =
      (fun a ->
        let c = the "selection" a.choice in
        [
          ("route_blocks", List.length c.Selection.route_blocks);
          ("lgc_blocks", List.length c.Selection.lgc_blocks);
          ("est_luts", int_of_float (Float.round c.Selection.lut_estimate));
          ("coverage_pct", int_of_float (100. *. c.Selection.coverage));
        ]);
  }

let p_extraction =
  {
    name = "extraction";
    key =
      (fun _ a ->
        Option.map
          (fun c -> Printf.sprintf "%s|%s" a.fingerprint (choice_key c))
          a.choice);
    run =
      (fun _ a ->
        let analysis = the "extraction" a.analysis
        and choice = the "extraction" a.choice in
        let member_cell = Selection.member analysis choice in
        P_cut (Extraction.extract a.original ~member:member_cell));
    counters =
      (fun a ->
        let c = the "extraction" a.cut in
        [
          ("cells", List.length c.Extraction.cells);
          ("in_ports", List.length c.Extraction.input_binding);
          ("out_ports", List.length c.Extraction.output_binding);
        ]);
  }

let p_synthesis =
  {
    name = "synthesis";
    key =
      (fun _ a ->
        Option.map
          (fun (c : Extraction.cut) ->
            Printf.sprintf "%s|%s"
              (Netlist.fingerprint c.Extraction.sub)
              (Style.name a.config.style))
          a.cut);
    run =
      (fun _ a ->
        let analysis = the "synthesis" a.analysis
        and choice = the "synthesis" a.choice
        and cut = the "synthesis" a.cut in
        let route_origins = Selection.route_origins analysis choice in
        P_mapped
          (Synthesize.run ~style:a.config.style ~route_origins
             cut.Extraction.sub));
    counters =
      (fun a ->
        let m = the "synthesis" a.mapped in
        [
          ("luts", m.Synthesize.luts);
          ("lut_levels", m.Synthesize.lut_levels);
          ("chain_mux4", m.Synthesize.chain_mux4);
          ("chain_mux2", m.Synthesize.chain_mux2);
          ("chain_stages", m.Synthesize.chain_stages);
          ("ffs", m.Synthesize.ffs);
        ]);
  }

let p_pnr =
  {
    name = "pnr";
    key =
      (fun ctx a ->
        Option.map
          (fun (m : Synthesize.mapped) ->
            Printf.sprintf "%s|%s|%d|%s"
              (Netlist.fingerprint m.Synthesize.netlist)
              (Style.name a.config.style)
              a.config.seed (fabric_key ctx.fabric))
          a.mapped);
    run =
      (fun ctx a ->
        let m = the "pnr" a.mapped in
        let r =
          match ctx.fabric with
          | Some f -> Pnr.run ~seed:a.config.seed f m.Synthesize.netlist
          | None ->
              Pnr.fit_loop ~seed:a.config.seed ~style:a.config.style
                m.Synthesize.netlist
        in
        P_pnr r);
    counters =
      (fun a ->
        let r = the "pnr" a.pnr in
        let m = the "pnr" a.mapped in
        [
          ("tiles", Fabric.clb_tiles r.Pnr.fabric);
          ("used_tiles", r.Pnr.placement.Pnr.used_tiles);
          ("used_luts", r.Pnr.placement.Pnr.used_luts);
          ("routed_nets", routed_nets m.Synthesize.netlist);
          ("wirelength", r.Pnr.routes.Pnr.wirelength);
          ("fit", match r.Pnr.fit with Ok () -> 1 | Error _ -> 0);
        ]);
  }

let p_emit =
  {
    name = "emit";
    key =
      (fun _ a ->
        Option.map
          (fun (m : Synthesize.mapped) ->
            Printf.sprintf "%s|%s|%d"
              (Netlist.fingerprint m.Synthesize.netlist)
              (Style.name a.config.style)
              a.config.seed)
          a.mapped);
    run =
      (fun _ a ->
        let m = the "emit" a.mapped in
        let emitted =
          Emit.emit ~style:a.config.style ~seed:a.config.seed
            m.Synthesize.netlist
        in
        (* acyclic twin for timing *)
        let timing =
          if (Style.params a.config.style).Style.cyclic_routing then
            (Emit.emit ~style:a.config.style ~seed:a.config.seed
               ~force_acyclic:true m.Synthesize.netlist)
              .Emit.locked
          else emitted.Emit.locked
        in
        P_emit (emitted, timing));
    counters =
      (fun a ->
        let e = the "emit" a.emitted in
        [
          ("config_bits", e.Emit.used.Resources.config_bits);
          ("locked_cells", Netlist.num_cells e.Emit.locked);
          ("cycle_blocks", List.length e.Emit.cycle_blocks);
        ]);
  }

let p_shrink =
  {
    name = "shrink";
    key =
      (fun ctx a ->
        (* all of this pass's inputs — pnr fabric, emission inventory,
           cut, route origins — are functions of these determinants *)
        Some
          (Printf.sprintf "%s|%s|%s|%d|%b|%s" a.fingerprint
             (target_key a.config.target)
             (Style.name a.config.style)
             a.config.seed a.config.shrink (fabric_key ctx.fabric)));
    run =
      (fun _ a ->
        let analysis = the "shrink" a.analysis
        and choice = the "shrink" a.choice
        and cut = the "shrink" a.cut
        and pnr = the "shrink" a.pnr
        and emitted = the "shrink" a.emitted in
        let route_origins = Selection.route_origins analysis choice in
        let feedthroughs = count_feedthroughs a.original cut route_origins in
        let base =
          if a.config.shrink then
            Fabric.shrink pnr.Pnr.fabric ~used:emitted.Emit.used
          else Fabric.capacity pnr.Pnr.fabric
        in
        let resources =
          {
            base with
            Resources.feedthrough_tracks = feedthroughs;
            io_pins = base.Resources.io_pins + (2 * feedthroughs);
          }
        in
        P_shrink (feedthroughs, resources));
    counters =
      (fun a ->
        let r = the "shrink" a.resources in
        [
          ("config_bits", r.Resources.config_bits);
          ("feedthrough_tracks", r.Resources.feedthrough_tracks);
          ("io_pins", r.Resources.io_pins);
        ]);
  }

let p_overhead =
  {
    name = "overhead";
    key =
      (fun ctx a ->
        Some
          (Printf.sprintf "%s|%s|%s|%d|%b|%s" a.fingerprint
             (target_key a.config.target)
             (Style.name a.config.style)
             a.config.seed a.config.shrink (fabric_key ctx.fabric)));
    run =
      (fun _ a ->
        let cut = the "overhead" a.cut
        and emitted = the "overhead" a.emitted
        and timing = the "overhead" a.timing
        and feedthroughs = the "overhead" a.feedthroughs
        and resources = the "overhead" a.resources in
        let overhead =
          Overhead.compute ~original:a.original ~sub:cut.Extraction.sub
            ~resources ~style:a.config.style ~timing_sub:timing ~feedthroughs
            ()
        in
        let locked_full =
          Extraction.reassemble a.original cut ~replacement:emitted.Emit.locked
        in
        P_overhead (overhead, locked_full));
    counters =
      (fun a ->
        let o = the "overhead" a.overhead in
        [
          ("area_milli", int_of_float (Float.round (1000. *. o.Overhead.area)));
          ( "power_milli",
            int_of_float (Float.round (1000. *. o.Overhead.power)) );
          ( "delay_milli",
            int_of_float (Float.round (1000. *. o.Overhead.delay)) );
        ]);
  }

let lint_subject ~original ~analysis ~choice ~pnr ~emitted ~resources
    ~shrunk locked_full =
  let route_origins = Selection.route_origins analysis choice in
  let lgc_origins =
    List.map
      (fun i -> analysis.Connectivity.blocks.(i).Connectivity.name)
      choice.Selection.lgc_blocks
  in
  Lint.subject ~name:(Netlist.name original)
    ~key:(Shell_fabric.Bitstream.bits emitted.Emit.bitstream)
    ~selection:{ Lint.design = original; route_origins; lgc_origins }
    ~fabric:pnr.Pnr.fabric ~bitstream:emitted.Emit.bitstream ~used:resources
    ~pnr ~shrunk locked_full

let p_lint =
  {
    name = "lint";
    key =
      (fun ctx a ->
        (* the lint subject — locked netlist, bitstream, pnr, shrunk
           resources, selection origins — is a function of the same
           determinants as the overhead pass *)
        Some
          (Printf.sprintf "%s|%s|%s|%d|%b|%s" a.fingerprint
             (target_key a.config.target)
             (Style.name a.config.style)
             a.config.seed a.config.shrink (fabric_key ctx.fabric)));
    run =
      (fun _ a ->
        let subject =
          lint_subject ~original:a.original ~analysis:(the "lint" a.analysis)
            ~choice:(the "lint" a.choice) ~pnr:(the "lint" a.pnr)
            ~emitted:(the "lint" a.emitted) ~resources:(the "lint" a.resources)
            ~shrunk:a.config.shrink
            (the "lint" a.locked_full)
        in
        (* diagnostics only: findings land in the artifacts and the
           per-rule Obs counters, they do not abort the flow *)
        P_lint (Lint.run ~rules:Lint_rules.all subject));
    counters =
      (fun a ->
        let r = the "lint" a.lint in
        [
          ("rules", List.length Lint_rules.all);
          ("errors", r.Lint.errors);
          ("warns", r.Lint.warns);
          ("infos", r.Lint.infos);
        ]);
  }

let passes =
  [
    p_connectivity;
    p_selection;
    p_extraction;
    p_synthesis;
    p_pnr;
    p_emit;
    p_shrink;
    p_overhead;
    p_lint;
  ]

let apply a = function
  | P_analysis t -> { a with analysis = Some t }
  | P_choice c -> { a with choice = Some c }
  | P_cut c -> { a with cut = Some c }
  | P_mapped m -> { a with mapped = Some m }
  | P_pnr r -> { a with pnr = Some r }
  | P_emit (e, timing) -> { a with emitted = Some e; timing = Some timing }
  | P_shrink (ft, r) -> { a with feedthroughs = Some ft; resources = Some r }
  | P_overhead (o, l) -> { a with overhead = Some o; locked_full = Some l }
  | P_lint r -> { a with lint = Some r }

let execute ?(use_cache = true) ?(strict_fit = false) ?fabric config original =
  let ctx = { strict_fit; fabric; use_cache = use_cache && env_cache_enabled () } in
  let init =
    {
      config;
      original;
      fingerprint = Netlist.fingerprint original;
      analysis = None;
      choice = None;
      cut = None;
      mapped = None;
      pnr = None;
      emitted = None;
      timing = None;
      feedthroughs = None;
      resources = None;
      overhead = None;
      locked_full = None;
      lint = None;
      verdicts = None;
    }
  in
  let art = ref init and failed = ref None in
  let run_pass p =
    Obs.with_span p.name @@ fun () ->
    Obs.incr m_passes;
    let key =
      if ctx.use_cache then
        Option.map (fun k -> p.name ^ "|" ^ k) (p.key ctx !art)
      else None
    in
    let hit = ref false in
    let compute () = Diag.in_pass p.name (fun () -> p.run ctx !art) in
    let product =
      match key with
      | None -> compute ()
      | Some k -> (
          match cache_find k with
          | Some pr ->
              hit := true;
              pr
          | None -> (
              (* we claimed the key: land it or re-open it *)
              match compute () with
              | pr ->
                  cache_add k pr;
                  pr
              | exception e ->
                  cache_abort k;
                  raise e))
    in
    art := apply !art product;
    (match product with
    | P_overhead _ -> art := { !art with verdicts = key }
    | _ -> ());
    if Obs.enabled () then begin
      Obs.span_add "cache_hit" (if !hit then 1 else 0);
      List.iter (fun (k, v) -> Obs.span_add k v) (p.counters !art)
    end;
    if p.name = "pnr" && ctx.strict_fit then
      let mapped = the "pnr" !art.mapped in
      match
        Pnr.diag_of_fit ~netlist:mapped.Synthesize.netlist
          (the "pnr" !art.pnr)
      with
      | None -> ()
      | Some d -> raise (Diag.Error { d with Diag.pass = Some p.name })
  in
  (try Obs.with_span "pipeline" (fun () -> List.iter run_pass passes)
   with Diag.Error d -> failed := Some d);
  { artifacts = !art; failed = !failed }
