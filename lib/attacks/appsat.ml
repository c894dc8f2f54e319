module Netlist = Shell_netlist.Netlist
module Simw = Shell_netlist.Simw
module Locked = Shell_locking.Locked
module Obs = Shell_util.Obs

let now = Shell_util.Clock.now

let settle_every = 4
let settle_target = 3

let m_runs =
  Obs.counter ~stable:true ~help:"AppSAT attacks started" "appsat_runs"

(* Estimated disagreement of [cand] with the oracle over the fixed
   sample: number of mismatching vectors, or [None] when the candidate
   cannot be simulated (cyclic under this key). *)
let error_estimator s ~vectors =
  let lk = s.Attack.locked in
  let nl = lk.Locked.locked in
  let comb = Netlist.comb_view nl in
  let golden =
    Attack.golden s.Attack.original
      (Attack.stimulus ~seed:0xa775a7
         ~vectors:(max 1 (min vectors 1024))
         (List.length (Netlist.inputs comb)))
  in
  let count simw keys =
    List.fold_left
      (fun acc (lanes, ins, theirs) ->
        acc
        + Simw.popcount
            (Simw.mismatch (Simw.eval_comb simw ?keys ~lanes ins) theirs))
      0 golden
  in
  if not (Netlist.has_comb_cycle nl) then begin
    let simw = Simw.create comb in
    fun cand -> Some (count simw (Some cand))
  end
  else
    fun cand ->
      (* cyclic locked netlist: specialize under the candidate first *)
      let cand_nl = Locked.apply_key lk cand in
      if Netlist.has_comb_cycle cand_nl then None
      else Some (count (Simw.create (Netlist.comb_view cand_nl)) None)

let attack =
  {
    Attack.name = "appsat";
    description = "approximate SAT attack (settle rounds + error sampling)";
    capabilities = [ Attack.Oracle_access ];
    run =
      (fun (b : Attack.budget) (s : Attack.subject) ->
        let lk = s.Attack.locked in
        let k = Locked.key_bits lk in
        if k = 0 then Attack.Inapplicable "no key bits"
        else begin
          Obs.incr m_runs;
          Obs.with_span "appsat" @@ fun () ->
          let start = now () in
          let miter =
            Miter.create ~cycle_blocks:s.Attack.cycle_blocks ~seed:0
              lk.Locked.locked
          in
          let est_err = error_estimator s ~vectors:b.Attack.vectors in
          (* consecutive zero-error candidates, and the last candidate's
             sampled error (-1 before the first settle round) *)
          let settled = ref 0 and last_err = ref (-1) in
          let stats ~dips ~exact =
            {
              Attack.iterations = dips;
              oracle_queries = dips;
              conflicts = Miter.conflicts miter;
              elapsed = now () -. start;
              key_bits = k;
              recovered_bits = 0;
              detail =
                [
                  ("settled", !settled);
                  ("exact", (if exact then 1 else 0));
                  ("err_vectors", !last_err);
                ];
            }
          in
          let extract_budget () =
            max 2_000
              (min 10_000 (b.Attack.max_conflicts - Miter.conflicts miter))
          in
          (* every [settle_every] DIPs: extract a candidate consistent
             with the constraints so far and sample its error rate;
             [settle_target] consecutive zero-error candidates end the
             attack early — AppSAT's termination heuristic, here backed
             by full verification before any break is reported *)
          let settle dips =
            if dips mod settle_every <> 0 then None
            else
              match
                Miter.extract_key ~max_conflicts:(extract_budget ()) miter
              with
              | None ->
                  settled := 0;
                  None
              | Some cand -> (
                  match est_err cand with
                  | None ->
                      settled := 0;
                      None
                  | Some 0 -> (
                      incr settled;
                      last_err := 0;
                      if !settled < settle_target then None
                      else
                        match
                          Attack.checked_broken s cand
                            (stats ~dips ~exact:false)
                        with
                        | Attack.Broken _ as v -> Some v
                        | _ ->
                            (* sampled-zero but not equivalent: keep
                               refining instead of reporting the miss *)
                            settled := 0;
                            None)
                  | Some e ->
                      settled := 0;
                      last_err := e;
                      None)
          in
          let v =
            match
              Sat_attack.dip_loop b ~start
                ~oracle:(Attack.oracle s.Attack.original)
                ~settle miter
            with
            | Sat_attack.Settled v, _ -> v
            | Sat_attack.Key key, dips ->
                (* no DIP left: the exact attack's endgame, for free *)
                Attack.checked_broken s key (stats ~dips ~exact:true)
            | Sat_attack.Out_of_budget, dips ->
                Attack.Resilient (stats ~dips ~exact:false)
          in
          (match Attack.stats_of v with
          | Some st ->
              Obs.span_add "dips" st.Attack.iterations;
              Obs.span_add "conflicts" st.Attack.conflicts
          | None -> ());
          v
        end);
  }
