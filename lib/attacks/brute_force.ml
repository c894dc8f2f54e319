module Netlist = Shell_netlist.Netlist
module Simw = Shell_netlist.Simw
module Locked = Shell_locking.Locked

let max_key_bits = 20

let now = Shell_util.Clock.now

let attack =
  {
    Attack.name = "brute";
    description =
      Printf.sprintf
        "word-parallel exhaustive key sweep (keys of <= %d bits)" max_key_bits;
    capabilities = [ Attack.Oracle_access ];
    run =
      (fun (b : Attack.budget) (s : Attack.subject) ->
        let lk = s.Attack.locked in
        let nl = lk.Locked.locked in
        let k = Locked.key_bits lk in
        if k = 0 then Attack.Inapplicable "no key bits"
        else if k > max_key_bits then
          Attack.Inapplicable
            (Printf.sprintf "%d key bits (> %d)" k max_key_bits)
        else if Netlist.has_comb_cycle nl then
          Attack.Inapplicable "cyclic locked netlist"
        else begin
          let start = now () in
          let comb = Netlist.comb_view nl in
          let simw = Simw.create comb in
          (* exhaustive inputs up to 12 bits; the activated-chip
             responses are computed once up front *)
          let chunks =
            Attack.golden s.Attack.original
              (Attack.stimulus ~exhaustive_upto:12 ~seed:0xb407e
                 ~vectors:(max 1 b.Attack.vectors)
                 (List.length (Netlist.inputs comb)))
          in
          let n_vectors =
            List.fold_left (fun acc (lanes, _, _) -> acc + lanes) 0 chunks
          in
          let tried = ref 0 in
          let found = ref None in
          let budget_out = ref false in
          let key = Array.make k false in
          let total = 1 lsl k in
          let v = ref 0 in
          while !found = None && (not !budget_out) && !v < total do
            (* keep budget polls off the per-candidate hot path *)
            if !v land 255 = 0 && now () -. start > b.Attack.time_limit then
              budget_out := true
            else begin
              for i = 0 to k - 1 do
                key.(i) <- !v land (1 lsl i) <> 0
              done;
              incr tried;
              (* wrong keys almost always die on the first chunk, so the
                 sweep costs ~one word-level pass per candidate *)
              let matches =
                List.for_all
                  (fun (lanes, ins, theirs) ->
                    Simw.mismatch (Simw.eval_comb simw ~keys:key ~lanes ins)
                      theirs
                    = 0)
                  chunks
              in
              if matches then found := Some (Array.copy key);
              incr v
            end
          done;
          let stats =
            {
              Attack.iterations = !tried;
              oracle_queries = n_vectors;
              conflicts = 0;
              elapsed = now () -. start;
              key_bits = k;
              recovered_bits = 0;
              detail =
                [ ("candidates", !tried); ("vectors", n_vectors) ];
            }
          in
          match !found with
          | Some key -> Attack.checked_broken s key stats
          | None -> Attack.Resilient stats
        end);
  }
