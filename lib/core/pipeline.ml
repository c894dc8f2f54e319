module Netlist = Shell_netlist.Netlist
module Emit = Shell_fabric.Emit
module Resources = Shell_fabric.Resources
module Pnr = Shell_pnr.Pnr
module Lint = Shell_lint.Lint
module Diag = Shell_util.Diag

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

(* the cache key of the run's overhead product, where [Flow.verify]
   keeps its verdicts (see [verdict]); [None] when the run bypassed the
   cache *)
type verdict_slot = string option

(* ------------------------------------------------------------------ *)
(* Pass-level cache: keyed by (pass name, fingerprint of the pass's
   inputs). Passes are pure functions of their fingerprinted inputs,
   so a hit returns the identical artifact a fresh run would produce —
   which is what keeps cached and uncached executions byte-identical.
   Shared across domains (Explore.search evaluates candidates on the
   domain pool), hence the mutex.

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
   fingerprint; format 4 is the [Connectivity.t] without a copy of the
   analyzed netlist; format 5 is the cell vector that records whether
   its array is shared). A blob written by a binary with other product
   types then sits under another key, so it is never read back at the
   wrong type. *)
let store_format = "p5|"

let cache_enabled () =
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
(* The pass runner *)

let slot ~cached name key : verdict_slot =
  if cached then Some (name ^ "|" ^ key ()) else None

let mismatch _ =
  invalid_arg "Pipeline.pass: the cache holds another pass's product"

let pass ~cached name key compute view =
  Obs.with_span name @@ fun () ->
  Obs.incr m_passes;
  let compute () = Diag.in_pass name compute in
  let product, hit =
    match slot ~cached name key with
    | None -> (compute (), false)
    | Some k -> (
        match cache_find k with
        | Some p -> (p, true)
        | None -> (
            (* we claimed the key: land it or re-open it *)
            match compute () with
            | p ->
                cache_add k p;
                (p, false)
            | exception e ->
                cache_abort k;
                raise e))
  in
  let v, counters = view product in
  if Obs.enabled () then begin
    Obs.span_add "cache_hit" (if hit then 1 else 0);
    List.iter (fun (k, n) -> Obs.span_add k n) (counters ())
  end;
  v
