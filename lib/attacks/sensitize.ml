module Netlist = Shell_netlist.Netlist
module Simw = Shell_netlist.Simw
module Locked = Shell_locking.Locked

let now = Shell_util.Clock.now

let rounds = 3

(* Restricted to the outputs the probed bit actually sensitizes on lane
   [l] (where out0 and out1 differ), count which candidate each output
   votes for in the chip's response. Unsensitized outputs are ignored:
   other still-wrong guess bits corrupt them freely without masking the
   decision. Per sensitized output the oracle bit matches exactly one
   side, so the verdict is (votes for 0, votes for 1). *)
let lane_votes out0 out1 l (o : bool array) =
  let v0 = ref 0 and v1 = ref 0 in
  Array.iteri
    (fun j w0 ->
      if (w0 lxor out1.(j)) lsr l land 1 = 1 then
        if (w0 lsr l) land 1 = (if o.(j) then 1 else 0) then incr v0
        else incr v1)
    out0;
  (!v0, !v1)

let attack =
  {
    Attack.name = "sensitize";
    description = "key sensitization: propagate single bits to outputs";
    capabilities = [ Attack.Oracle_access ];
    run =
      (fun (b : Attack.budget) (s : Attack.subject) ->
        let lk = s.Attack.locked in
        let nl = lk.Locked.locked in
        let k = Locked.key_bits lk in
        if k = 0 then Attack.Inapplicable "no key bits"
        else if Netlist.has_comb_cycle nl then
          Attack.Inapplicable "cyclic locked netlist"
        else begin
          let start = now () in
          let comb = Netlist.comb_view nl in
          let simw = Simw.create comb in
          let chunks =
            Attack.stimulus ~seed:0x5e45
              ~vectors:(max 1 (min b.Attack.vectors 1024))
              (List.length (Netlist.inputs comb))
          in
          let oracle = Attack.oracle s.Attack.original in
          let guess = Array.make k false in
          let decided = Array.make k false in
          let probes = ref 0 and queries = ref 0 in
          let budget_out = ref false in
          (* Probe one bit under the current guess: find inputs where
             flipping only this bit changes some output (sensitizing
             patterns), ask the chip, and keep the value whose response
             matches — exactly one match pins the bit; both or neither
             (other wrong guess bits masking the comparison) moves on to
             the next sensitizing pattern, up to [max_queries] chip
             calls per probe. *)
          let max_queries = 8 in
          let probe i =
            incr probes;
            decided.(i) <- false;
            let g0 = Array.copy guess and g1 = Array.copy guess in
            g0.(i) <- false;
            g1.(i) <- true;
            let tries = ref 0 in
            let rec scan = function
              | [] -> ()
              | (lanes, ins) :: rest ->
                  let out0 = Simw.eval_comb simw ~keys:g0 ~lanes ins in
                  let out1 = Simw.eval_comb simw ~keys:g1 ~lanes ins in
                  let diff = ref (Simw.mismatch out0 out1) in
                  while
                    (not decided.(i)) && !diff <> 0 && !tries < max_queries
                  do
                    let l = Simw.first_lane !diff in
                    diff := !diff land lnot (1 lsl l);
                    incr tries;
                    let o = oracle (Simw.lane ins l) in
                    incr queries;
                    match lane_votes out0 out1 l o with
                    | v0, 0 when v0 > 0 ->
                        guess.(i) <- false;
                        decided.(i) <- true
                    | 0, v1 when v1 > 0 ->
                        guess.(i) <- true;
                        decided.(i) <- true
                    | _ -> ()
                  done;
                  if (not decided.(i)) && !tries < max_queries then scan rest
            in
            scan chunks
          in
          (* re-probe every bit each round: a bit mis-decided while its
             neighbours were still wrong gets corrected once they are
             right (coordinate descent on oracle agreement); stop as
             soon as the guess verifies *)
          let verified = ref false in
          let round = ref 0 in
          while (not !verified) && !round < rounds && not !budget_out do
            incr round;
            for i = 0 to k - 1 do
              if not !budget_out then
                if now () -. start > b.Attack.time_limit then
                  budget_out := true
                else probe i
            done;
            if not !budget_out then
              verified :=
                Locked.verify ~original:s.Attack.original
                  { lk with Locked.key = guess }
          done;
          (* polish: sensitization can get stuck a short Hamming
             distance from the key when wrong bits cancel on shared
             outputs (the XOR parity trap — two wrong bits on one
             xor-dominated path look locally optimal). Hill-climb the
             sampled error with single-bit flips, then pair flips for
             small keys, and re-verify on zero. *)
          let polished = ref 0 in
          if (not !verified) && not !budget_out then begin
            let golden = Attack.golden s.Attack.original chunks in
            let err () =
              List.fold_left
                (fun acc (lanes, ins, theirs) ->
                  acc
                  + Simw.popcount
                      (Simw.mismatch
                         (Simw.eval_comb simw ~keys:guess ~lanes ins)
                         theirs))
                0 golden
            in
            let best = ref (err ()) in
            let try_flip bits =
              List.iter (fun i -> guess.(i) <- not guess.(i)) bits;
              let e = err () in
              if e < !best then begin
                best := e;
                polished := !polished + List.length bits
              end
              else List.iter (fun i -> guess.(i) <- not guess.(i)) bits
            in
            let time_out () = now () -. start > b.Attack.time_limit in
            for i = 0 to k - 1 do
              if !best > 0 && not (time_out ()) then try_flip [ i ]
            done;
            if !best > 0 && k <= 32 then
              for i = 0 to k - 2 do
                for j = i + 1 to k - 1 do
                  if !best > 0 && not (time_out ()) then try_flip [ i; j ]
                done
              done;
            if !best = 0 then
              verified :=
                Locked.verify ~original:s.Attack.original
                  { lk with Locked.key = guess }
          end;
          let nd = Array.fold_left (fun a d -> if d then a + 1 else a) 0 decided in
          let stats =
            {
              Attack.iterations = !probes;
              oracle_queries = !queries;
              conflicts = 0;
              elapsed = now () -. start;
              key_bits = k;
              recovered_bits = nd;
              detail =
                [ ("decided", nd); ("rounds", !round); ("polished", !polished) ];
            }
          in
          (* only claim a break when the assembled guess verifies *)
          if !verified then Attack.checked_broken s guess stats
          else Attack.Resilient stats
        end);
  }
