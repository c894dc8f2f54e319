module Pool = Shell_util.Pool
module Obs = Shell_util.Obs

type config = { solver_seed : int; label : string }

let m_races =
  Obs.counter ~stable:true ~help:"portfolio races run" "portfolio_races"

(* winner identity and its effort depend on which racer finishes the
   budgeted search first, so both are unstable *)
let g_winner =
  Obs.gauge ~help:"index of the last race's winning config (-1 = none)"
    "portfolio_winner"

let m_conflicts_at_win =
  Obs.counter ~help:"winning attack's solver conflicts, summed over races"
    "portfolio_conflicts_at_win"

let configs =
  Array.init 4 (fun i ->
      if i = 0 then { solver_seed = 0; label = "phase=minisat" }
      else
        let seed = 0x5eed + (i * 0x9e37) in
        { solver_seed = seed; label = Printf.sprintf "phase=rand(%#x)" seed })

type t = { winner : int option; outcomes : (config * Attack.verdict) array }

let broke = function Attack.Broken _ -> true | _ -> false

(* The one race. The winner is the lowest-index break, so once racer 0
   breaks no other racer can change the verdict: unless [all] (the full
   report of [run]), racers 1-3 run only when racer 0 did not break. *)
let race ~all budget subject =
  Obs.incr m_races;
  Obs.with_span "portfolio" @@ fun () ->
  let racer cfg =
    (cfg, Sat_attack.run ~solver_seed:cfg.solver_seed budget subject)
  in
  (* inside a pool task (a battery cell) the racers form a nested batch
     that idle domains pick up *)
  let batch cfgs = Pool.map racer cfgs in
  let outcomes =
    if all then batch configs
    else
      let first = racer configs.(0) in
      if broke (snd first) then [| first |]
      else
        Array.append [| first |]
          (batch (Array.sub configs 1 (Array.length configs - 1)))
  in
  Obs.span_add "racers_run" (Array.length outcomes);
  let winner = ref None in
  Array.iteri
    (fun i (_, v) -> if !winner = None && broke v then winner := Some i)
    outcomes;
  (match !winner with
  | Some i ->
      Obs.set g_winner i;
      Obs.span_add "winner" i;
      Option.iter
        (fun (st : Attack.stats) ->
          Obs.add m_conflicts_at_win st.Attack.conflicts;
          Obs.span_add "conflicts_at_win" st.Attack.conflicts)
        (Attack.stats_of (snd outcomes.(i)))
  | None -> Obs.set g_winner (-1));
  { winner = !winner; outcomes }

let run budget subject = race ~all:true budget subject

let iterations v =
  match Attack.stats_of v with Some st -> st.Attack.iterations | None -> -1

let best t =
  match t.winner with
  | Some i -> snd t.outcomes.(i)
  | None ->
      Array.fold_left
        (fun most (_, v) -> if iterations v > iterations most then v else most)
        (snd t.outcomes.(0))
        t.outcomes

(* ---------------- unified interface ---------------- *)

let attack =
  {
    Attack.name = "portfolio";
    description = "seeded SAT-solver portfolio race (4 phase seeds)";
    capabilities = [ Attack.Oracle_access ];
    run =
      (fun b s ->
        (* every racer runs to its own budget, so the verdict stays a
           pure function of (subject, budget), which the battery's
           determinism contract requires *)
        let t = race ~all:false b s in
        let winner = ("winner", Option.value t.winner ~default:(-1)) in
        let with_winner (st : Attack.stats) =
          { st with Attack.detail = winner :: st.Attack.detail }
        in
        match best t with
        | Attack.Broken (key, st) -> Attack.Broken (key, with_winner st)
        | Attack.Resilient st -> Attack.Resilient (with_winner st)
        | Attack.Inapplicable _ as v -> v);
  }
