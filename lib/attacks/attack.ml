module Netlist = Shell_netlist.Netlist
module Simw = Shell_netlist.Simw
module Locked = Shell_locking.Locked
module Rng = Shell_util.Rng
module Obs = Shell_util.Obs

type budget = {
  max_dips : int;
  max_conflicts : int;
  time_limit : float;
  vectors : int;
}

let budget ?(max_dips = 256) ?(max_conflicts = 200_000) ?(time_limit = 30.0)
    ?(vectors = 256) () =
  { max_dips; max_conflicts; time_limit; vectors }

type stats = {
  iterations : int;
  oracle_queries : int;
  conflicts : int;
  elapsed : float;
  key_bits : int;
  recovered_bits : int;
  detail : (string * int) list;
}

type verdict =
  | Broken of bool array * stats
  | Resilient of stats
  | Inapplicable of string

let stats_of = function
  | Broken (_, st) | Resilient st -> Some st
  | Inapplicable _ -> None

type capability = Oracle_access | Structure_only | Ground_truth

let capability_name = function
  | Oracle_access -> "oracle"
  | Structure_only -> "structural"
  | Ground_truth -> "ground-truth"

(* One battery run's SAT searches of one subject, keyed by (solver
   seed, budget). Single-flight like the pass cache: the first asker
   claims a key ([Running]) and runs the search outside [lock]; later
   askers wait for it on [landed], or reuse its verdict. *)
type search_slot = Running | Done of verdict

type searches = {
  context : Obs.context;
  lock : Mutex.t;
  landed : Condition.t;
  slots : (int * budget, search_slot) Hashtbl.t;
}

type subject = {
  label : string;
  original : Netlist.t;
  locked : Locked.t;
  cycle_blocks : (int array * bool array) list;
  searches : searches option;
}

let subject ?label ?(cycle_blocks = []) ~original (lk : Locked.t) =
  let label =
    match label with
    | Some l -> l
    | None -> Netlist.name original ^ "/" ^ lk.Locked.scheme
  in
  { label; original; locked = lk; cycle_blocks; searches = None }

let with_searches s =
  let searches =
    {
      context = Obs.context ();
      lock = Mutex.create ();
      landed = Condition.create ();
      slots = Hashtbl.create 8;
    }
  in
  { s with searches = Some searches }

let shared_search s ~solver_seed budget search =
  match s.searches with
  | None -> search ()
  | Some t -> (
      let key = (solver_seed, budget) in
      let finish verdict =
        Mutex.lock t.lock;
        (match verdict with
        | Some v -> Hashtbl.replace t.slots key (Done v)
        | None -> Hashtbl.remove t.slots key);
        Condition.broadcast t.landed;
        Mutex.unlock t.lock
      in
      Mutex.lock t.lock;
      let rec look () =
        match Hashtbl.find_opt t.slots key with
        | Some (Done v) -> `Shared v
        | Some Running ->
            (* a search that raises removes its slot: look again *)
            Condition.wait t.landed t.lock;
            look ()
        | None ->
            Hashtbl.replace t.slots key Running;
            `Claimed
      in
      let r = look () in
      Mutex.unlock t.lock;
      (* both under the run's span context, so the search's spans and
         the reuse count land in the same place whichever cell claimed
         the search *)
      match r with
      | `Shared v ->
          Obs.with_context t.context (fun () ->
              Obs.span_add "shared_searches" 1);
          v
      | `Claimed -> (
          match Obs.with_context t.context search with
          | v ->
              finish (Some v);
              v
          | exception e ->
              (* re-open the key: a waiter claims it and runs it again *)
              finish None;
              raise e))

type t = {
  name : string;
  description : string;
  capabilities : capability list;
  run : budget -> subject -> verdict;
}

(* Oracle closures carry mutable simulator state: each call builds a
   fresh one, so attacks running on separate pool domains never share
   a simulator (same rule as the portfolio racers). *)
let word_oracle original =
  let simw = Simw.create (Netlist.comb_view original) in
  fun ~lanes words -> Simw.eval_comb simw ~lanes words

(* one query on lane 0 of the word simulator *)
let oracle original =
  let query = word_oracle original in
  fun input -> Simw.lane (query ~lanes:1 (Array.map Bool.to_int input)) 0

let stimulus ?(exhaustive_upto = -1) ~seed ~vectors n_in =
  let chunk_lanes total c = min Simw.width (total - (c * Simw.width)) in
  if n_in <= exhaustive_upto then begin
    let total = 1 lsl n_in in
    List.init ((total + Simw.width - 1) / Simw.width) (fun c ->
        let lanes = chunk_lanes total c in
        let words = Array.make n_in 0 in
        for l = 0 to lanes - 1 do
          let v = (c * Simw.width) + l in
          for i = 0 to n_in - 1 do
            if (v lsr i) land 1 = 1 then words.(i) <- words.(i) lor (1 lsl l)
          done
        done;
        (lanes, words))
  end
  else
    Rng.vectors_packed (Rng.create seed) ~vectors ~bits:n_in
    |> Array.mapi (fun c words -> (chunk_lanes vectors c, words))
    |> Array.to_list

let golden original chunks =
  let oracle_w = word_oracle original in
  List.map (fun (lanes, ins) -> (lanes, ins, oracle_w ~lanes ins)) chunks

let checked_broken s key stats =
  if Locked.verify ~original:s.original { s.locked with Locked.key } then
    Broken (key, { stats with recovered_bits = stats.key_bits })
  else
    (* the attack's candidate does not unlock the design: never report
       an unverified break — downgrade, and leave a mark *)
    Resilient { stats with detail = ("verify_failed", 1) :: stats.detail }
