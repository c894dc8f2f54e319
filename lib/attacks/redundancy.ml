module Dataflow = Shell_lint.Dataflow
module Odc = Shell_lint.Odc
module Cell = Shell_netlist.Cell
module N = Shell_netlist.Netlist
module Locked = Shell_locking.Locked

(* Redundancy attack: wrong key values leave provably redundant logic.

   A correct key restores the original function, so pinning it leaves
   the functional logic intact; a wrong value tends to degenerate the
   locking gates (a controlling constant, an unsteerable mux) and with
   them everything whose only purpose was to feed the degenerate path.
   We measure "intact" as the number of LIVE cells — output not proven
   constant and still observable under the ODC masking rules — and
   vote AGAINST any pinning that kills strictly more live cells than
   the unpinned baseline already concedes. A bit is decided when
   exactly one of its two pinnings is voted against; if no bit can be
   decided the netlist leaks nothing to this analysis and the verdict
   is Resilient (guessing noise would only produce verify_failed
   downgrades).

   Everything here is a pure function of the locked netlist: no RNG,
   no wall-clock dependence in the result, so the battery matrix stays
   byte-identical at any SHELL_JOBS. *)

let live_cells nl values (odc : Odc.t) =
  Array.fold_left
    (fun acc (c : Cell.t) ->
      if
        Dataflow.known values.(c.Cell.out) = None
        && odc.Odc.observable.(c.Cell.out)
      then acc + 1
      else acc)
    0 (N.cells nl)

let pinned_live nl pins =
  let values = Dataflow.const_values ~pins ~config_through:true nl in
  live_cells nl values (Odc.analyze ~values nl)

let attack =
  {
    Attack.name = "redundancy";
    description = "vote against key values whose pinning kills live logic";
    capabilities = [ Attack.Structure_only ];
    run =
      (fun (b : Attack.budget) (s : Attack.subject) ->
        let nl = s.Attack.locked.Locked.locked in
        let keys = Array.of_list (N.keys nl) in
        let k = Array.length keys in
        if k = 0 then Attack.Inapplicable "no key bits"
        else begin
          let start = Shell_util.Clock.now () in
          let base = pinned_live nl [] in
          let guess = Array.make k false in
          let decided = ref 0 in
          let examined = ref 0 in
          let i = ref 0 in
          let stop = ref false in
          while (not !stop) && !i < k do
            let _, net = keys.(!i) in
            if net >= 0 then begin
              let against0 = pinned_live nl [ (net, false) ] < base in
              let against1 = pinned_live nl [ (net, true) ] < base in
              (match (against0, against1) with
              | true, false ->
                  guess.(!i) <- true;
                  incr decided
              | false, true -> incr decided
              | _ -> ())
            end;
            incr examined;
            incr i;
            if Shell_util.Clock.now () -. start > b.Attack.time_limit then
              stop := true
          done;
          let stats =
            {
              Attack.iterations = !examined;
              oracle_queries = 0;
              conflicts = 0;
              elapsed = Shell_util.Clock.now () -. start;
              key_bits = k;
              recovered_bits = !decided;
              detail =
                [
                  ("base_live", base);
                  ("decided", !decided);
                  ("undecided", k - !decided);
                ];
            }
          in
          if !decided = 0 then Attack.Resilient stats
          else Attack.checked_broken s guess stats
        end);
  }
