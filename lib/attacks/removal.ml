module Netlist = Shell_netlist.Netlist
module Simw = Shell_netlist.Simw

type verdict = {
  matched : bool;
  vectors_tried : int;
  first_mismatch : bool array option;
}

(* Word-parallel scan of the sample in presentation order: on a
   miscompare, [vectors_tried] counts up to and including the earliest
   differing vector (lowest failing lane of the earliest failing
   chunk). Exhaustive under 2^16 inputs. *)
let attempt ?(vectors = 512) ~oracle candidate =
  let comb = Netlist.comb_view candidate in
  let simw = Simw.create comb in
  let rec scan pos = function
    | [] -> { matched = true; vectors_tried = pos; first_mismatch = None }
    | (lanes, words) :: rest ->
        let diff =
          Simw.mismatch (Simw.eval_comb simw ~lanes words) (oracle ~lanes words)
        in
        if diff = 0 then scan (pos + lanes) rest
        else
          let l = Simw.first_lane diff in
          {
            matched = false;
            vectors_tried = pos + l + 1;
            first_mismatch = Some (Simw.lane words l);
          }
  in
  scan 0
    (Attack.stimulus ~exhaustive_upto:16 ~seed:0xdead ~vectors
       (List.length (Netlist.inputs comb)))

(* ---------------- unified interface ---------------- *)

(* Battery form of the removal idea: strip the key logic by pinning the
   whole key vector to a constant (all-false, then all-true) and test
   the specialized netlist as the attacker's candidate replacement. The
   classic attack substitutes an off-the-shelf block; constant-key
   specialization is the strongest guess available without a library of
   candidates, and it is exactly what defeats naive fabrics whose key
   only gates decoys. *)
let attack =
  {
    Attack.name = "removal";
    description = "key-removal via constant-key specialization";
    capabilities = [ Attack.Oracle_access ];
    run =
      (fun (b : Attack.budget) (s : Attack.subject) ->
        let lk = s.Attack.locked in
        let k = Shell_locking.Locked.key_bits lk in
        if k = 0 then Attack.Inapplicable "no key bits"
        else begin
          let start = Shell_util.Clock.now () in
          let oracle = Attack.word_oracle s.Attack.original in
          let tried = ref 0 and queries = ref 0 in
          let try_const v =
            let key = Array.make k v in
            let cand = Shell_locking.Locked.apply_key lk key in
            (* specialization can leave a combinational cycle (eFPGA
               decoy loops under the wrong key): not a candidate *)
            if Netlist.has_comb_cycle cand then None
            else begin
              incr tried;
              let r = attempt ~vectors:b.Attack.vectors ~oracle cand in
              queries := !queries + r.vectors_tried;
              if r.matched then Some key else None
            end
          in
          let stats () =
            {
              Attack.iterations = !tried;
              oracle_queries = !queries;
              conflicts = 0;
              elapsed = Shell_util.Clock.now () -. start;
              key_bits = k;
              recovered_bits = 0;
              detail = [ ("candidates", !tried) ];
            }
          in
          match try_const false with
          | Some key -> Attack.checked_broken s key (stats ())
          | None -> (
              match try_const true with
              | Some key -> Attack.checked_broken s key (stats ())
              | None -> Attack.Resilient (stats ()))
        end);
  }
