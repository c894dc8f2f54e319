(* Seeded op streams. The workload seed is the only input: the program
   under test receives just the specs generated here, and equal seeds give
   equal streams.

   Every stream is whole rounds over equal-weight classes whose make-up
   does not depend on the seed, so each reported percentile rank lands
   inside a class rather than on the boundary between two (where it would
   flip between clusters from run to run, or from seed to seed). *)

let default_seed = 1

(* Table III circuits, in catalog order *)
let circuits =
  List.map
    (fun (e : Shell_circuits.Catalog.entry) -> e.name)
    Shell_circuits.Catalog.all

let styles = [ "openfpga"; "fabulous"; "muxchain" ]
let rng seed tag = Random.State.make [| seed; tag |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Rounds of [round_ops] ops that last about [seconds] at [nominal_ms] per
   op (the normalised cost measured when the benchmark was written), and
   never fewer than a p90 needs. The length depends on the arguments
   alone, so a seed's stream, and its quality metrics, are exact. *)
let rounds ~seconds ~round_ops ~nominal_ms =
  let want =
    Float.to_int
      (Float.ceil (seconds *. 1000. /. (nominal_ms *. float_of_int round_ops)))
  in
  max want ((Stats.min_p90_samples + round_ops - 1) / round_ops)

(* One lock request: what `shell lock -b circuit --style style --seed
   flow_seed` computes. *)
type lock_op = { circuit : string; style : string; flow_seed : int }

let classes =
  List.concat_map (fun c -> List.map (fun s -> (c, s)) styles) circuits

let draw st (circuit, style) =
  { circuit; style; flow_seed = Random.State.int st 1_000_000 }

(* (set-up ops, one per class; timed ops). The seed picks every op's flow
   seed and the order within each round. *)
let lock ~seed ~rounds =
  let st = rng seed 1 in
  let setup = List.map (draw st) classes in
  let timed =
    List.concat
      (List.init rounds (fun _ -> List.map (draw st) (shuffle st classes)))
  in
  (setup, timed)

type subject = { scheme : string; lock_seed : int }

(* One xbar4 per Shell_locking scheme, locked with seed 1 as the bench
   history's battery target does. The locking seed stays fixed: a row's
   cost follows the locked design's shape (muxlut:8 rows take 300 to
   850 ms across locking seeds), so seed-chosen subjects would make p90
   and ops/s swing with the workload seed. The seed orders the rows. *)
let subjects =
  List.map
    (fun scheme -> { scheme; lock_seed = 1 })
    [ "xor:8"; "mux:8"; "rlut:4"; "hlut:4"; "muxlut:8" ]

let battery ~seed ~rounds =
  let st = rng seed 2 in
  List.concat (List.init rounds (fun _ -> shuffle st subjects))

type kind = Mem | Disk | Miss

let kind_name = function Mem -> "hit" | Disk -> "disk" | Miss -> "miss"

type request = { kind : kind; key : lock_op }

(* requests per class visit: one disk hit, three memory hits, one miss *)
let serve_visit = 5

(* A serve round visits every class once. *)
let serve_round_ops = serve_visit * List.length classes

(* Pass-cache entries one daemon lifetime can add, at most:
   connectivity, selection, extraction and synthesis depend on circuit and
   style only; the other passes on the flow seed too. A lifetime is one
   round, with two keys (one hot, one fresh) per class. *)
let serve_entries =
  let seed_free = 4 in
  let npasses = List.length Shell_core.Pipeline.pass_names in
  let nclasses = List.length classes in
  (seed_free * nclasses) + ((npasses - seed_free) * 2 * nclasses)

(* (hot keys, one per class, computed and spilled in set-up; timed
   requests, one round per daemon lifetime). Every round runs on a daemon
   restarted on the spill directory and visits the classes in a shuffled
   order: the first request for the class's hot key (a disk hit), then,
   shuffled, three repeats of it (memory hits) and one fresh key (a
   miss). Memory hits are the fastest 60 %, so p50 falls among them, and
   misses the slowest 20 %, so p90 falls in their middle. A lifetime's
   working set stays far under the pass cache's cap, whose wipe-all would
   otherwise turn memory hits into disk hits unseen. *)
let serve ~seed ~rounds =
  if serve_entries >= Shell_core.Pipeline.cache_cap then
    invalid_arg "Streams.serve: a round overflows the pass cache";
  let st = rng seed 3 in
  let hot = List.map (draw st) classes in
  (* miss seeds are offset past every hot seed, so a miss never lands on a
     spilled key *)
  let miss cls =
    let k = draw st cls in
    { kind = Miss; key = { k with flow_seed = 1_000_000 + k.flow_seed } }
  in
  let round () =
    List.concat_map
      (fun (cls, key) ->
        let mem = { kind = Mem; key } in
        { kind = Disk; key } :: shuffle st [ mem; mem; mem; miss cls ])
      (shuffle st (List.combine classes hot))
  in
  (hot, List.init rounds (fun _ -> round ()))
