module Rng = Shell_util.Rng

type verdict = Equivalent | Counterexample of bool array

let exhaustive_limit = 16

let comb nl = if Netlist.count_kind nl (function Cell.Dff -> true | _ -> false) > 0 then Netlist.comb_view nl else nl

(* Bit-parallel scan: evaluate [vecs] through both designs Simw.width
   vectors at a time; on a miscompare, report the earliest vector in
   presentation order (the lowest differing lane of the earliest
   differing chunk) — byte-identical to the old one-vector-at-a-time
   loop's counterexample. *)
let find_cex sa sb ~keys_a ~keys_b vecs =
  let n = Array.length vecs in
  let result = ref Equivalent in
  let pos = ref 0 in
  while !result = Equivalent && !pos < n do
    let lanes = min Simw.width (n - !pos) in
    let chunk = Array.sub vecs !pos lanes in
    let words = Simw.pack chunk in
    let wa = Simw.eval_comb sa ~keys:keys_a ~lanes words in
    let wb = Simw.eval_comb sb ~keys:keys_b ~lanes words in
    let diff = Simw.mismatch wa wb in
    if diff <> 0 then result := Counterexample chunk.(Simw.first_lane diff)
    else pos := !pos + lanes
  done;
  !result

let check ?(vectors = 256) ?rng ?keys_a ?keys_b a b =
  let a = comb a and b = comb b in
  let n_in = List.length (Netlist.inputs a) in
  if List.length (Netlist.inputs b) <> n_in then
    invalid_arg "Equiv.check: input count mismatch";
  if List.length (Netlist.outputs b) <> List.length (Netlist.outputs a) then
    invalid_arg "Equiv.check: output count mismatch";
  let keys_a =
    match keys_a with
    | Some k -> k
    | None -> Array.make (List.length (Netlist.keys a)) false
  in
  let keys_b =
    match keys_b with
    | Some k -> k
    | None -> Array.make (List.length (Netlist.keys b)) false
  in
  let sa = Simw.create a and sb = Simw.create b in
  let vecs =
    if n_in <= exhaustive_limit then
      Array.init (1 lsl n_in) (fun v ->
          Array.init n_in (fun i -> v land (1 lsl i) <> 0))
    else begin
      (* Hoisted generation, in the historical draw order (vector-major,
         bit-minor), then dedup keeping first occurrences: identical
         vectors give identical results, so dropping repeats cannot
         change the verdict or the first counterexample. *)
      let rng = match rng with Some r -> r | None -> Rng.create 0x5eed in
      let raw = Array.make vectors [||] in
      for k = 0 to vectors - 1 do
        raw.(k) <- Array.init n_in (fun _ -> Rng.bool rng)
      done;
      let seen = Hashtbl.create (2 * vectors) in
      let uniq = ref [] in
      Array.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            uniq := v :: !uniq
          end)
        raw;
      Array.of_list (List.rev !uniq)
    end
  in
  find_cex sa sb ~keys_a ~keys_b vecs

let check_sequential ?(cycles = 32) ?(runs = 16) ?rng ?keys_a ?keys_b a b =
  let n_in = List.length (Netlist.inputs a) in
  if List.length (Netlist.inputs b) <> n_in then
    invalid_arg "Equiv.check_sequential: input count mismatch";
  let keys_a =
    match keys_a with
    | Some k -> k
    | None -> Array.make (List.length (Netlist.keys a)) false
  in
  let keys_b =
    match keys_b with
    | Some k -> k
    | None -> Array.make (List.length (Netlist.keys b)) false
  in
  let rng = match rng with Some r -> r | None -> Rng.create 0xc10c in
  (* Pre-draw all stimulus in the historical order: run-major, then
     cycle, then bit. Runs then evaluate word-parallel, one lane per
     run. *)
  let stim =
    Array.init runs (fun _ -> Array.make cycles [||])
  in
  for r = 0 to runs - 1 do
    for c = 0 to cycles - 1 do
      stim.(r).(c) <- Array.init n_in (fun _ -> Rng.bool rng)
    done
  done;
  let sa = Simw.create a and sb = Simw.create b in
  let result = ref Equivalent in
  let r0 = ref 0 in
  while !result = Equivalent && !r0 < runs do
    let lanes = min Simw.width (runs - !r0) in
    Simw.reset sa;
    Simw.reset sb;
    (* earliest failing cycle per lane; the verdict is the lowest
       failing lane (= lowest run index), matching the scalar loop's
       run-major early exit. Once lane 0 fails no lower-priority
       failure can win, so the cycle loop stops there. *)
    let fail_cycle = Array.make lanes (-1) in
    let any = ref false in
    let c = ref 0 in
    let stop = ref false in
    while (not !stop) && !c < cycles do
      let chunk = Array.init lanes (fun l -> stim.(!r0 + l).(!c)) in
      let words = Simw.pack chunk in
      let oa = Simw.step sa ~keys:keys_a ~lanes words in
      let ob = Simw.step sb ~keys:keys_b ~lanes words in
      let diff = Simw.mismatch oa ob in
      if diff <> 0 then begin
        any := true;
        for l = 0 to lanes - 1 do
          if fail_cycle.(l) < 0 && (diff lsr l) land 1 = 1 then
            fail_cycle.(l) <- !c
        done;
        if fail_cycle.(0) >= 0 then stop := true
      end;
      incr c
    done;
    if !any then begin
      let l = ref 0 in
      while fail_cycle.(!l) < 0 do
        incr l
      done;
      result := Counterexample stim.(!r0 + !l).(fail_cycle.(!l))
    end
    else r0 := !r0 + lanes
  done;
  !result
