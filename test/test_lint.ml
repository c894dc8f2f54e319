(* Tests for shell_lint: one positive + one negative fixture per rule,
   baseline suppression, severity floors, jobs-independent JSON output
   and lint-cleanliness of the pipeline's locked result. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab
module Jsonw = Shell_util.Jsonw
module Lint = Shell_lint.Lint
module Rules = Shell_lint.Rules
module Bitstream = Shell_fabric.Bitstream
module C = Shell_core
module Circ = Shell_circuits

let run_rule name subj =
  match Rules.find name with
  | None -> Alcotest.failf "unknown rule %s" name
  | Some r -> (Lint.run ~rules:[ r ] subj).Lint.findings

let check_fires name subj =
  Alcotest.(check bool) (name ^ " fires") true (run_rule name subj <> [])

let check_clean name subj =
  match run_rule name subj with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s expected clean, got: %s" name f.Lint.message

(* well-formed negative fixture for the structural pack *)
let clean () =
  let nl = N.create "clean" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  N.add_output nl "y" (N.and_ nl a b);
  nl

(* ---------------- structural pack ---------------- *)

let test_port_invalid () =
  let nl = N.create "dup" in
  let a = N.add_input nl "a" in
  let a2 = N.add_input nl "a" in
  N.add_output nl "y" (N.or_ nl a a2);
  check_fires "port-invalid" (Lint.subject nl);
  check_clean "port-invalid" (Lint.subject (clean ()))

let test_net_multi_driven () =
  let nl = N.create "dd" in
  let a = N.add_input nl "a" in
  let x = N.not_ nl a in
  N.add_cell nl (Cell.make Cell.Buf [| a |] x);
  N.add_output nl "y" x;
  check_fires "net-multi-driven" (Lint.subject nl);
  check_clean "net-multi-driven" (Lint.subject (clean ()))

let test_net_undriven () =
  let nl = N.create "float" in
  let a = N.add_input nl "a" in
  let dangling = N.new_net nl in
  N.add_output nl "y" (N.and_ nl a dangling);
  check_fires "net-undriven" (Lint.subject nl);
  check_clean "net-undriven" (Lint.subject (clean ()))

let test_comb_cycle () =
  let nl = N.create "loop" in
  let a = N.add_input nl "a" in
  let q = N.new_net nl in
  N.add_cell nl (Cell.make Cell.And [| a; q |] q);
  N.add_output nl "y" q;
  check_fires "comb-cycle" (Lint.subject nl);
  (* a dff breaks the cycle *)
  let seq = N.create "seq" in
  let a = N.add_input seq "a" in
  let q = N.new_net seq in
  let d = N.xor_ seq a q in
  N.add_cell seq (Cell.make Cell.Dff [| d |] q);
  N.add_output seq "y" q;
  check_clean "comb-cycle" (Lint.subject seq)

let test_cell_dead () =
  let nl = clean () in
  let a = snd (List.hd (N.inputs nl)) in
  let _unused = N.not_ nl a in
  check_fires "cell-dead" (Lint.subject nl);
  check_clean "cell-dead" (Lint.subject (clean ()))

let test_output_constant () =
  let nl = N.create "stuck" in
  let a = N.add_input nl "a" in
  let z = N.const nl false in
  N.add_output nl "y" (N.and_ nl a z);
  check_fires "output-constant" (Lint.subject nl);
  check_clean "output-constant" (Lint.subject (clean ()))

let test_lut_degenerate () =
  let nl = N.create "lutdeg" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  (* a 2-input table that only depends on input 0 *)
  N.add_output nl "y" (N.lut nl (Truthtab.var 0 ~arity:2) [| a; b |]);
  check_fires "lut-degenerate" (Lint.subject nl);
  let ok = N.create "lutok" in
  let a = N.add_input ok "a" in
  let b = N.add_input ok "b" in
  N.add_output ok "y"
    (N.lut ok (Truthtab.of_fun ~arity:2 (fun v -> v.(0) <> v.(1))) [| a; b |]);
  check_clean "lut-degenerate" (Lint.subject ok)

(* ---------------- security pack ---------------- *)

let test_key_dead () =
  let nl = N.create "kdead" in
  let _k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.not_ nl a);
  check_fires "key-dead" (Lint.subject nl);
  let ok = N.create "kok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "key-dead" (Lint.subject ok)

let test_key_blocked () =
  (* the key is wired towards the output, but an AND-with-0 cuts
     every path: reachable yet not live *)
  let nl = N.create "kblk" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  let z = N.const nl false in
  N.add_output nl "y" (N.and_ nl (N.xor_ nl k a) z);
  check_fires "key-blocked" (Lint.subject nl);
  let ok = N.create "kok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "key-blocked" (Lint.subject ok)

let test_key_odc_dead () =
  (* the key steers a mux whose arms are the same net: it survives the
     constant cuts (reach + live) but the ODC rules mask its only read *)
  let nl = N.create "odcdead" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.mux2 nl ~sel:k ~a ~b:a);
  check_fires "key-odc-dead" (Lint.subject nl);
  (* distinct arms: the select is genuinely observable, provably clean *)
  let ok = N.create "odcok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  let b = N.add_input ok "b" in
  N.add_output ok "y" (N.mux2 ok ~sel:k ~a ~b);
  check_clean "key-odc-dead" (Lint.subject ok)

let test_key_taint_collapse () =
  (* same-arm mux: the output's cone carries no key influence at all,
     even though the netlist exposes a key *)
  let nl = N.create "collapse" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.mux2 nl ~sel:k ~a ~b:a);
  check_fires "key-taint-collapse" (Lint.subject nl);
  (* an XOR-keyed output is tainted by its bit: provably clean *)
  let ok = N.create "taintok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "key-taint-collapse" (Lint.subject ok)

let test_scope_leak () =
  (* AND-keying collapses asymmetrically: pinning the bit to 0 proves
     the output constant, pinning to 1 proves nothing *)
  let nl = N.create "leak" in
  let k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  N.add_output nl "y" (N.and_ nl k a);
  check_fires "scope-leak" (Lint.subject nl);
  (* XOR-keying is score-symmetric: neither pinning proves anything,
     so the rule provably cannot fire *)
  let ok = N.create "leakok" in
  let k = N.add_key ok "kb0" in
  let a = N.add_input ok "a" in
  N.add_output ok "y" (N.xor_ ok k a);
  check_clean "scope-leak" (Lint.subject ok)

let test_mux_chain_cycle () =
  let nl = N.create "muxloop" in
  let s = N.add_input nl "s" in
  let a = N.add_input nl "a" in
  let q = N.new_net nl in
  N.add_cell nl (Cell.make Cell.Mux2 [| s; q; a |] q);
  N.add_output nl "y" q;
  check_fires "mux-chain-cycle" (Lint.subject nl);
  let ok = N.create "muxok" in
  let s = N.add_input ok "s" in
  let a = N.add_input ok "a" in
  let b = N.add_input ok "b" in
  N.add_output ok "y" (N.mux2 ok ~sel:s ~a ~b);
  check_clean "mux-chain-cycle" (Lint.subject ok)

let sel_design ~adjacent =
  let nl = N.create "sel" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let r = N.and_ ~origin:"top.routeblk" nl a b in
  let feed = if adjacent then r else N.not_ nl (N.not_ nl r) in
  N.add_output nl "y" (N.not_ ~origin:"top.lgcblk" nl feed);
  nl

let test_lgc_depth () =
  let selection design =
    { Lint.design; route_origins = [ "routeblk" ]; lgc_origins = [ "lgcblk" ] }
  in
  let far = sel_design ~adjacent:false in
  check_fires "lgc-depth" (Lint.subject ~selection:(selection far) far);
  let near = sel_design ~adjacent:true in
  check_clean "lgc-depth" (Lint.subject ~selection:(selection near) near)

let test_ref_mismatch () =
  let golden = clean () in
  let tampered =
    N.map_cells (clean ()) (fun _ c ->
        match c.Cell.kind with
        | Cell.And -> { c with Cell.kind = Cell.Or }
        | _ -> c)
  in
  check_fires "ref-mismatch" (Lint.subject ~reference:golden tampered);
  check_clean "ref-mismatch" (Lint.subject ~reference:golden (clean ()))

(* ---------------- fabric pack ---------------- *)

let keyed ~use_both =
  let nl = N.create "cfg" in
  let k0 = N.add_key nl "kb0" in
  let k1 = N.add_key nl "kb1" in
  let a = N.add_input nl "a" in
  let x = N.and_ nl k0 a in
  N.add_output nl "y" (if use_both then N.xor_ nl x k1 else x);
  nl

let test_config_dangling () =
  let bs () =
    let b = Bitstream.builder () in
    Bitstream.append b "lut0.in0.sel" [| true; false |];
    b
  in
  (* kb1 is a config bit with no fanout *)
  check_fires "config-dangling"
    (Lint.subject ~bitstream:(bs ()) (keyed ~use_both:false));
  check_clean "config-dangling"
    (Lint.subject ~bitstream:(bs ()) (keyed ~use_both:true))

let test_bitstream_accounting () =
  let bad = Bitstream.builder () in
  (* 3 bits can't be a LUT table, and the netlist exposes 2 key bits *)
  Bitstream.append bad "lut0.table" [| true; false; true |];
  let fs =
    run_rule "bitstream-accounting"
      (Lint.subject ~bitstream:bad (keyed ~use_both:true))
  in
  let wheres = List.map (fun (f : Lint.finding) -> f.Lint.where) fs in
  Alcotest.(check bool) "table-size flagged" true
    (List.mem "segment:lut0.table" wheres);
  Alcotest.(check bool) "key-count flagged" true (List.mem "keys" wheres);
  let ok = Bitstream.builder () in
  Bitstream.append ok "lut0.table" [| true; false |];
  check_clean "bitstream-accounting"
    (Lint.subject ~bitstream:ok (keyed ~use_both:true))

let fir_result =
  lazy
    (C.Pipeline.clear_cache ();
     C.Flow.run (C.Flow.shell_config ()) (Circ.Fir.netlist ()))

let test_fabric_unused () =
  let r = Lazy.force fir_result in
  (* same fit, shrink flagged off: the sized fabric has slack *)
  let unshrunk =
    Lint.subject ~pnr:r.C.Flow.pnr ~shrunk:false r.C.Flow.locked_full
  in
  check_fires "fabric-unused" unshrunk;
  let shrunk =
    Lint.subject ~pnr:r.C.Flow.pnr ~shrunk:true r.C.Flow.locked_full
  in
  check_clean "fabric-unused" shrunk

(* ---------------- ODC / taint vs brute-force Simw ---------------- *)

module Dataflow = Shell_lint.Dataflow
module Odc = Shell_lint.Odc
module Taint = Shell_lint.Taint
module Simw = Shell_netlist.Simw
module Digraph = Shell_graph.Digraph

(* Brute-force ground truth: which outputs functionally depend on key
   bit [bit]? Exhaustive over every input vector (packed word-parallel
   into Simw lanes) and every assignment of the other key bits. *)
let dependent_outputs nl ~bit =
  let n_in = List.length (N.inputs nl) in
  let nk = List.length (N.keys nl) in
  let n_out = List.length (N.outputs nl) in
  let lanes = 1 lsl n_in in
  assert (lanes <= Simw.width);
  let simw = Simw.create nl in
  let in_words =
    Array.init n_in (fun i ->
        let w = ref 0 in
        for l = 0 to lanes - 1 do
          if (l lsr i) land 1 = 1 then w := !w lor (1 lsl l)
        done;
        !w)
  in
  let dep = Array.make n_out false in
  for others = 0 to (1 lsl nk) - 1 do
    if (others lsr bit) land 1 = 0 then begin
      let keys0 = Array.init nk (fun j -> (others lsr j) land 1 = 1) in
      let keys1 = Array.copy keys0 in
      keys1.(bit) <- true;
      let o0 = Simw.eval_comb simw ~keys:keys0 ~lanes in_words in
      let o1 = Simw.eval_comb simw ~keys:keys1 ~lanes in_words in
      for oi = 0 to n_out - 1 do
        if o0.(oi) <> o1.(oi) then dep.(oi) <- true
      done
    end
  done;
  dep

(* Soundness direction of both analyses, against the ground truth: a
   key bit the ODC pass marks unobservable must not affect any output,
   and an output whose taint set misses a bit must not depend on it. *)
let check_agreement nl =
  let name = N.name nl in
  let values = Dataflow.const_values nl in
  let odc = Odc.analyze ~values nl in
  let taint = Taint.analyze ~values nl in
  let outs = Array.of_list (N.outputs nl) in
  List.iteri
    (fun b (knm, knet) ->
      let dep = dependent_outputs nl ~bit:b in
      if not odc.Odc.observable.(knet) then
        Array.iteri
          (fun oi (onm, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: unobservable %s cannot reach %s" name knm
                 onm)
              false dep.(oi))
          outs;
      Array.iteri
        (fun oi (onm, onet) ->
          if not (Taint.tainted taint ~net:onet ~bit:b) then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s untainted by %s must not depend on it"
                 name onm knm)
              false dep.(oi))
        outs)
    (N.keys nl)

let test_odc_taint_vs_simw () =
  (* same-arm mux: select masked *)
  let m1 = N.create "agr_mux_same" in
  let k = N.add_key m1 "k" in
  let a = N.add_input m1 "a" in
  N.add_output m1 "y" (N.mux2 m1 ~sel:k ~a ~b:a);
  (* mux4 with all arms equal: both selects masked *)
  let m2 = N.create "agr_mux4_same" in
  let k0 = N.add_key m2 "k0" in
  let k1 = N.add_key m2 "k1" in
  let a = N.add_input m2 "a" in
  N.add_output m2 "y" (N.mux4 m2 ~s0:k0 ~s1:k1 [| a; a; a; a |]);
  (* pinned select: the key rides the dead arm *)
  let m3 = N.create "agr_sel_pinned" in
  let k = N.add_key m3 "k" in
  let a = N.add_input m3 "a" in
  N.add_output m3 "y" (N.mux2 m3 ~sel:(N.const m3 true) ~a:k ~b:a);
  (* x xor x: both reads masked, output silently constant *)
  let m4 = N.create "agr_xor_same" in
  let k = N.add_key m4 "k" in
  let a = N.add_input m4 "a" in
  N.add_output m4 "y" (N.xor_ m4 k k);
  N.add_output m4 "z" a;
  (* controlling constant: AND with 0 blocks the key *)
  let m5 = N.create "agr_and_zero" in
  let k = N.add_key m5 "k" in
  let a = N.add_input m5 "a" in
  N.add_output m5 "y" (N.or_ m5 (N.and_ m5 k (N.const m5 false)) a);
  (* the attack-side gadget fixture: k0/k1 genuinely live on y/s0/s1
     but s0 is untainted by k1 and s1 by k0 *)
  let m6 = N.create "agr_gadget" in
  let a = N.add_input m6 "a" in
  let b = N.add_input m6 "b" in
  let c = N.add_input m6 "c" in
  let k0 = N.add_key m6 "k0" in
  let k1 = N.add_key m6 "k1" in
  let t = N.xor_ m6 (N.and_ m6 a b) c in
  N.add_output m6 "y" (N.xor_ m6 (N.xnor_ m6 t k0) k1);
  N.add_output m6 "s0" (N.and_ m6 a k0);
  N.add_output m6 "s1" (N.or_ m6 b k1);
  List.iter check_agreement [ m1; m2; m3; m4; m5; m6 ];
  (* and the converse sanity on the gadget: the live pairs really are
     tainted and observable *)
  let values = Dataflow.const_values m6 in
  let taint = Taint.analyze ~values m6 in
  let odc = Odc.analyze ~values m6 in
  let y_net = List.assoc "y" (N.outputs m6) in
  Alcotest.(check bool) "gadget y tainted by k0" true
    (Taint.tainted taint ~net:y_net ~bit:0);
  Alcotest.(check bool) "gadget y tainted by k1" true
    (Taint.tainted taint ~net:y_net ~bit:1);
  List.iter
    (fun (_, knet) ->
      Alcotest.(check bool) "gadget keys observable" true
        odc.Odc.observable.(knet))
    (N.keys m6)

(* ---------------- fixpoints vs the plain sweeps ---------------- *)

(* The sweep versions of ODC and taint the engine replaced: every cell
   in (reverse) topological order, or index order on cyclic netlists,
   until a whole sweep changes nothing. The worklist ODC and the
   skipping taint sweeps must land on exactly their fixpoints. *)
module Sweep = struct
  let order nl =
    match N.topo_order nl with
    | o -> Some o
    | exception Failure _ -> None

  let odc values nl =
    let n = N.num_nets nl in
    let observable = Array.make (max n 1) false in
    let masked_reads = ref 0 and const_cuts = ref 0 in
    let mark net =
      if
        net >= 0 && net < n
        && (not observable.(net))
        && Dataflow.known values.(net) = None
      then begin
        observable.(net) <- true;
        true
      end
      else false
    in
    Array.iter (fun net -> ignore (mark net)) (N.output_nets nl);
    let cells = N.cells nl in
    let order =
      match order nl with
      | Some o ->
          let m = Array.length o in
          Array.init m (fun i -> o.(m - 1 - i))
      | None -> Array.init (Array.length cells) (fun i -> i)
    in
    let sweep () =
      let changed = ref false in
      Array.iter
        (fun ci ->
          let c = cells.(ci) in
          if observable.(c.Cell.out) then
            Array.iteri
              (fun i net ->
                if (not (Odc.input_masked values c i)) && mark net then
                  changed := true)
              c.Cell.ins)
        order;
      !changed
    in
    while sweep () do
      ()
    done;
    Array.iter
      (fun (c : Cell.t) ->
        if observable.(c.Cell.out) then
          Array.iteri
            (fun i _ -> if Odc.input_masked values c i then incr masked_reads)
            c.Cell.ins)
      cells;
    for net = 0 to n - 1 do
      if Dataflow.known values.(net) <> None then incr const_cuts
    done;
    { Odc.observable; masked_reads = !masked_reads; const_cuts = !const_cuts }

  let taint values nl =
    let bpw = Sys.int_size in
    let n = N.num_nets nl in
    let keys = N.keys nl in
    let nkeys = List.length keys in
    let w = (nkeys + bpw - 1) / bpw in
    let words = Array.make (max (n * w) 1) 0 in
    if nkeys > 0 && n > 0 then begin
      List.iteri
        (fun b (_, net) ->
          let j = (net * w) + (b / bpw) in
          words.(j) <- words.(j) lor (1 lsl (b mod bpw)))
        keys;
      let cells = N.cells nl in
      let order =
        match order nl with
        | Some o -> o
        | None -> Array.init (Array.length cells) (fun i -> i)
      in
      let sweep () =
        let changed = ref false in
        Array.iter
          (fun ci ->
            let c = cells.(ci) in
            let out = c.Cell.out in
            if Dataflow.known values.(out) = None then
              Array.iteri
                (fun i net ->
                  if not (Odc.input_masked values c i) then
                    for j = 0 to w - 1 do
                      let s = words.((net * w) + j) in
                      let d = words.((out * w) + j) in
                      if s lor d <> d then begin
                        words.((out * w) + j) <- s lor d;
                        changed := true
                      end
                    done)
                c.Cell.ins)
          order;
        !changed
      in
      while sweep () do
        ()
      done
    end;
    { Taint.nkeys; w; words }

  (* the Digraph-from-edge-list SCCs the lint rules used to build *)
  let sccs nl ~keep =
    let cells = N.cells nl in
    let edges = ref [] in
    Array.iteri
      (fun i c ->
        if keep c then
          Array.iter
            (fun net ->
              match N.driver nl net with
              | Some j when keep cells.(j) -> edges := (j, i) :: !edges
              | _ -> ())
            c.Cell.ins)
      cells;
    let g = Digraph.make ~n:(Array.length cells) ~edges:!edges in
    Digraph.sccs g
    |> List.filter_map (fun scc ->
           match scc with
           | [ v ] -> if Digraph.has_edge g v v then Some [ v ] else None
           | _ -> Some (List.sort compare scc))
    |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
end

(* the fixpoints, standalone and through the lint context, equal the
   sweeps' exactly; so do the shared SCCs *)
let check_fixpoints nl =
  let name = N.name nl in
  let ctx = Lint.make_ctx (Lint.subject nl) in
  let values = ctx.Lint.values in
  Alcotest.(check bool)
    (name ^ ": context constant facts") true
    (values = Dataflow.const_values nl);
  let odc_ref = Sweep.odc values nl and taint_ref = Sweep.taint values nl in
  List.iter
    (fun (via, (odc : Odc.t)) ->
      let what s = Printf.sprintf "%s (%s): %s" name via s in
      Alcotest.(check (array bool))
        (what "observable") odc_ref.Odc.observable odc.Odc.observable;
      Alcotest.(check int)
        (what "masked_reads") odc_ref.Odc.masked_reads odc.Odc.masked_reads;
      Alcotest.(check int)
        (what "const_cuts") odc_ref.Odc.const_cuts odc.Odc.const_cuts)
    [ ("ctx", ctx.Lint.odc); ("standalone", Odc.analyze ~values nl) ];
  (* the context keeps one bit per net: whether the per-bit set is
     non-empty *)
  Alcotest.(check (array bool))
    (name ^ " (ctx): key reach")
    (Array.init (N.num_nets nl) (fun net ->
         not (Taint.is_empty taint_ref net)))
    ctx.Lint.key_reach;
  let taint = Taint.analyze ~values nl in
  Alcotest.(check int)
    (name ^ " (standalone): taint w") taint_ref.Taint.w taint.Taint.w;
  Alcotest.(check (array int))
    (name ^ " (standalone): taint words") taint_ref.Taint.words
    taint.Taint.words;
  let comb =
    Sweep.sccs nl ~keep:(fun c -> not (Cell.is_sequential c.Cell.kind))
  in
  let mux =
    Sweep.sccs nl ~keep:(fun c ->
        match c.Cell.kind with Cell.Mux2 | Cell.Mux4 -> true | _ -> false)
  in
  Alcotest.(check (list (list int)))
    (name ^ ": comb SCCs") comb ctx.Lint.cycles.Dataflow.comb;
  Alcotest.(check (list (list int)))
    (name ^ ": mux SCCs") mux ctx.Lint.cycles.Dataflow.mux

let test_fixpoints_fuzz () =
  let flops = ref 0 and wide = ref 0 in
  for seed = 1 to 240 do
    let rng = Shell_util.Rng.create (7919 * seed) in
    let shape = Shell_fuzz.Gen.random_shape rng in
    (* every case carries flops and keys; every fourth one more than a
       word of them *)
    let key_bits =
      if seed mod 4 = 0 then 64 + Shell_util.Rng.int rng 40
      else 1 + Shell_util.Rng.int rng 6
    in
    let shape = { shape with Shell_fuzz.Gen.with_dffs = true; key_bits } in
    let nl = Shell_fuzz.Gen.netlist rng shape in
    if N.count_kind nl (fun k -> k = Cell.Dff) > 0 then incr flops;
    if key_bits > Sys.int_size then incr wide;
    check_fixpoints nl
  done;
  Alcotest.(check bool) "most cases carry flops" true (!flops >= 200);
  Alcotest.(check bool) "multi-word taint covered" true (!wide >= 50)

(* The catalog locked under OpenFPGA: cyclic routing, so ODC, taint and
   the SCCs all take their cyclic paths. *)
let test_fixpoints_catalog_openfpga () =
  List.iter
    (fun (e : Circ.Catalog.entry) ->
      let cfg =
        {
          (C.Flow.shell_config ()) with
          C.Flow.style = Shell_fabric.Style.Openfpga;
        }
      in
      let r = C.Flow.run cfg (e.Circ.Catalog.netlist ()) in
      let nl = r.C.Flow.locked_full in
      Alcotest.(check bool)
        (e.Circ.Catalog.name ^ " locked under OpenFPGA is cyclic") true
        (N.has_comb_cycle nl);
      check_fixpoints nl)
    Circ.Catalog.all

(* A net with two drivers, each reading a different key, plus a flop,
   a MUX reading its own output and a loop through a MUX and an AND:
   observability must reach both drivers, taint must union both, and
   only the self-loop is a MUX chain. *)
let test_fixpoints_multi_driven () =
  let nl = N.create "multi_driven" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let k0 = N.add_key nl "k0" in
  let k1 = N.add_key nl "k1" in
  let k2 = N.add_key nl "k2" in
  let x = N.xor_ nl a k0 in
  N.add_cell nl (Cell.make Cell.And [| b; k1 |] x);
  let q = N.new_net nl in
  N.add_cell nl (Cell.make Cell.Mux2 [| k2; x; q |] q);
  let r = N.dff nl q in
  N.add_output nl "y" (N.or_ nl r x);
  let l = N.new_net nl in
  let m = N.mux2 nl ~sel:a ~a:b ~b:l in
  N.add_cell nl (Cell.make Cell.And [| m; k0 |] l);
  N.add_output nl "z" l;
  check_fixpoints nl;
  let ctx = Lint.make_ctx (Lint.subject nl) in
  Alcotest.(check int) "two combinational cycles" 2
    (List.length ctx.Lint.cycles.Dataflow.comb);
  Alcotest.(check int) "one MUX chain" 1
    (List.length ctx.Lint.cycles.Dataflow.mux);
  List.iter
    (fun k ->
      Alcotest.(check bool) "both drivers' keys observable" true
        ctx.Lint.odc.Odc.observable.(k))
    [ k0; k1 ];
  let y = List.assoc "y" (N.outputs nl) in
  Alcotest.(check (list int)) "y tainted by every key" [ 0; 1; 2 ]
    (Taint.net_taint (Taint.analyze ~values:ctx.Lint.values nl) y)

(* Lint's analyses are built once per subject with flat arrays: the
   whole registry over the locked FIR allocates a bounded number of
   minor words. [Gc.minor_words] counts per domain, so one job. *)
let test_lint_allocation () =
  let r = Lazy.force fir_result in
  let subj = Shell_serve.Jobs.lint_subject_of_result r in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Lint.run ~jobs:1 ~rules:Rules.all subj));
  let mw = (Gc.minor_words () -. w0) /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f Mw minor words <= 5" mw)
    true (mw <= 5.)

(* ---------------- engine ---------------- *)

(* a fixture that trips rules of all three severities *)
let noisy () =
  let nl = N.create "noisy" in
  let _k = N.add_key nl "kb0" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let _dead = N.not_ nl a in
  N.add_output nl "y" (N.lut nl (Truthtab.var 0 ~arity:2) [| a; b |]);
  let q = N.new_net nl in
  N.add_cell nl (Cell.make Cell.And [| a; q |] q);
  N.add_output nl "z" q;
  nl

let test_severity_floor () =
  let subj = Lint.subject (noisy ()) in
  let all = Lint.run ~rules:Rules.all subj in
  Alcotest.(check bool) "has errors" true (all.Lint.errors > 0);
  Alcotest.(check bool) "has warns" true (all.Lint.warns > 0);
  Alcotest.(check bool) "has infos" true (all.Lint.infos > 0);
  let errs_only = Lint.run ~severity:Lint.Error ~rules:Rules.all subj in
  Alcotest.(check int) "same errors" all.Lint.errors errs_only.Lint.errors;
  Alcotest.(check int) "warns filtered" 0 errs_only.Lint.warns;
  Alcotest.(check int) "infos filtered" 0 errs_only.Lint.infos;
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check string)
        "only errors remain" "error"
        (Lint.severity_name f.Lint.severity))
    errs_only.Lint.findings

let test_baseline_suppression () =
  let subj = Lint.subject (noisy ()) in
  let r = Lint.run ~rules:Rules.all subj in
  Alcotest.(check bool) "not ok before" false (Lint.ok r);
  let fps =
    List.map
      (Lint.fingerprint ~subject_name:r.Lint.subject_name)
      r.Lint.findings
  in
  let suppressed = Lint.run ~baseline:fps ~rules:Rules.all subj in
  Alcotest.(check int) "all suppressed"
    (List.length r.Lint.findings)
    suppressed.Lint.suppressed;
  Alcotest.(check (list string)) "no findings left" []
    (List.map (fun (f : Lint.finding) -> f.Lint.where) suppressed.Lint.findings);
  Alcotest.(check bool) "ok after" true (Lint.ok suppressed);
  (* fingerprints survive a baseline-file round-trip *)
  let file =
    String.concat "\n"
      ("# comment" :: List.map (Lint.baseline_line ~subject_name:r.Lint.subject_name)
          r.Lint.findings)
  in
  Alcotest.(check (list string)) "parse round-trip" fps (Lint.parse_baseline file)

let test_jobs_independent () =
  (* a key-bearing fixture so the security-pack rules (incl. the
     dataflow-engine trio) contribute findings to the diffed JSON *)
  let keyed () =
    let nl = N.create "keyed" in
    let k0 = N.add_key nl "k0" in
    let k1 = N.add_key nl "k1" in
    let a = N.add_input nl "a" in
    N.add_output nl "y" (N.mux2 nl ~sel:k0 ~a ~b:a);
    N.add_output nl "z" (N.and_ nl k1 a);
    nl
  in
  let json jobs =
    let rs =
      List.map
        (fun nl -> Lint.run ~jobs ~rules:Rules.all (Lint.subject nl))
        [ noisy (); keyed () ]
    in
    Jsonw.to_string ~indent:2 (Lint.reports_json rs)
  in
  let j1 = json 1 in
  Alcotest.(check string) "json byte-identical jobs 1 vs 4" j1 (json 4);
  List.iter
    (fun rule ->
      let needle = Printf.sprintf "\"rule\": %S" rule in
      let found =
        let ln = String.length needle and lj = String.length j1 in
        let rec go i = i + ln <= lj && (String.sub j1 i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (rule ^ " present in diffed JSON") true found)
    [ "key-odc-dead"; "key-taint-collapse"; "scope-leak" ]

let test_locked_flow_clean () =
  let r = Lazy.force fir_result in
  let rep = r.C.Flow.lint in
  if rep.Lint.errors <> 0 then
    List.iter
      (fun (f : Lint.finding) ->
        Format.eprintf "%a@." (Lint.pp_finding ~subject_name:rep.Lint.subject_name) f)
      rep.Lint.findings;
  Alcotest.(check int) "locked pipeline result lints clean" 0 rep.Lint.errors

let suite =
  [
    Alcotest.test_case "port-invalid" `Quick test_port_invalid;
    Alcotest.test_case "net-multi-driven" `Quick test_net_multi_driven;
    Alcotest.test_case "net-undriven" `Quick test_net_undriven;
    Alcotest.test_case "comb-cycle" `Quick test_comb_cycle;
    Alcotest.test_case "cell-dead" `Quick test_cell_dead;
    Alcotest.test_case "output-constant" `Quick test_output_constant;
    Alcotest.test_case "lut-degenerate" `Quick test_lut_degenerate;
    Alcotest.test_case "key-dead" `Quick test_key_dead;
    Alcotest.test_case "key-blocked" `Quick test_key_blocked;
    Alcotest.test_case "key-odc-dead" `Quick test_key_odc_dead;
    Alcotest.test_case "key-taint-collapse" `Quick test_key_taint_collapse;
    Alcotest.test_case "scope-leak" `Quick test_scope_leak;
    Alcotest.test_case "odc+taint vs Simw brute force" `Quick
      test_odc_taint_vs_simw;
    Alcotest.test_case "odc+taint fixpoints = sweeps (fuzz)" `Quick
      test_fixpoints_fuzz;
    Alcotest.test_case "odc+taint fixpoints = sweeps (OpenFPGA catalog)"
      `Quick test_fixpoints_catalog_openfpga;
    Alcotest.test_case "odc+taint fixpoints = sweeps (multi-driven)" `Quick
      test_fixpoints_multi_driven;
    Alcotest.test_case "lint allocation" `Quick test_lint_allocation;
    Alcotest.test_case "mux-chain-cycle" `Quick test_mux_chain_cycle;
    Alcotest.test_case "lgc-depth" `Quick test_lgc_depth;
    Alcotest.test_case "ref-mismatch" `Quick test_ref_mismatch;
    Alcotest.test_case "config-dangling" `Quick test_config_dangling;
    Alcotest.test_case "bitstream-accounting" `Quick test_bitstream_accounting;
    Alcotest.test_case "fabric-unused" `Quick test_fabric_unused;
    Alcotest.test_case "severity floor" `Quick test_severity_floor;
    Alcotest.test_case "baseline suppression" `Quick test_baseline_suppression;
    Alcotest.test_case "jobs-independent JSON" `Quick test_jobs_independent;
    Alcotest.test_case "locked flow lints clean" `Quick test_locked_flow_clean;
  ]
