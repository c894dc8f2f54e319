module Locked = Shell_locking.Locked
module Solver = Shell_sat.Solver
module Obs = Shell_util.Obs

(* Attack effort depends on the wall-clock budget, so everything here
   is unstable except the run count (one per [run] invocation, a pure
   function of the workload). *)
let m_runs = Obs.counter ~stable:true ~help:"SAT attacks started" "attack_runs"

let m_iters =
  Obs.counter ~help:"DIS-loop solver calls across all attacks"
    "attack_dis_iterations"

let h_solve_us =
  Obs.histogram ~help:"microseconds per DIS-loop solver call"
    "attack_solve_us"

(* Per-attack wall clock: [Sys.time] is process-wide CPU time, which
   inflates with every concurrently attacking domain and would shrink
   the effective budget of parallel runs. *)
let now = Shell_util.Clock.now

type ending = Key of bool array | Out_of_budget | Settled of Attack.verdict

let dip_loop (b : Attack.budget) ~start ~oracle ~settle miter =
  let budget_left () =
    Miter.conflicts miter < b.Attack.max_conflicts
    && now () -. start < b.Attack.time_limit
  in
  (* solver calls stop at the wall-clock budget too, not only between
     calls *)
  let deadline = start +. b.Attack.time_limit in
  (* one capped DIS-loop solver call; each becomes a child span of the
     attack with its own latency sample when Obs is on *)
  let find_dip per_call =
    if not (Obs.enabled ()) then
      Miter.find_dip ~max_conflicts:per_call ~deadline miter
    else begin
      Obs.incr m_iters;
      let t0 = now () in
      let r =
        Obs.with_span "dip" (fun () ->
            Miter.find_dip ~max_conflicts:per_call ~deadline miter)
      in
      Obs.observe_us h_solve_us (now () -. t0);
      r
    end
  in
  let rec loop dips =
    if dips >= b.Attack.max_dips || not (budget_left ()) then
      (Out_of_budget, dips)
    else
      (* cap each solver call so wall-clock budget checks stay frequent
         even on large miters *)
      let per_call =
        max 1_000
          (min 20_000 ((b.Attack.max_conflicts - Miter.conflicts miter) / 2))
      in
      match find_dip per_call with
      | `Dip input -> (
          Miter.add_dip miter input (oracle input);
          let dips = dips + 1 in
          match settle dips with Some v -> (Settled v, dips) | None -> loop dips)
      | `Budget ->
          (* capped call ran out: the loop head re-checks the global
             budget and either resumes the search or gives up *)
          loop dips
      | `Unsat -> (
          (* the DIP loop already consumed part of the conflict budget;
             hand extraction only the remainder (with a floor so a
             near-exhausted budget can still emit the key) *)
          let remaining =
            max 2_000 (b.Attack.max_conflicts - Miter.conflicts miter)
          in
          match Miter.extract_key ~max_conflicts:remaining ~deadline miter with
          | Some key -> (Key key, dips)
          | None -> (Out_of_budget, dips))
  in
  loop 0

let search ~solver_seed b (s : Attack.subject) =
  Obs.incr m_runs;
  let ending, stats =
    Obs.with_span "sat_attack" @@ fun () ->
    let start = now () in
    let miter =
      Miter.create ~cycle_blocks:s.Attack.cycle_blocks ~seed:solver_seed
        s.Attack.locked.Locked.locked
    in
    let ending, dips =
      dip_loop b ~start ~oracle:(Attack.oracle s.Attack.original)
        ~settle:(fun _ -> None)
        miter
    in
    let st = Miter.stats miter in
    Obs.span_add "dips" dips;
    Obs.span_add "conflicts" st.Solver.conflicts;
    ( ending,
      {
        Attack.iterations = dips;
        oracle_queries = dips;
        conflicts = st.Solver.conflicts;
        elapsed = now () -. start;
        key_bits = Miter.num_keys miter;
        recovered_bits = 0;
        detail =
          [
            ("decisions", st.Solver.decisions);
            ("propagations", st.Solver.propagations);
            ("restarts", st.Solver.restarts);
          ];
      } )
  in
  match ending with
  | Key key -> Attack.checked_broken s key stats
  | Out_of_budget -> Attack.Resilient stats
  | Settled v -> v

let run ?(solver_seed = 0) b s =
  Attack.shared_search s ~solver_seed b (fun () -> search ~solver_seed b s)

let attack =
  {
    Attack.name = "sat";
    description = "oracle-guided SAT attack (exact; Subramanyan et al.)";
    capabilities = [ Attack.Oracle_access ];
    run = (fun b s -> run b s);
  }
