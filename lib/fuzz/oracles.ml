module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Simw = Shell_netlist.Simw
module Cnf = Shell_netlist.Cnf
module Equiv = Shell_netlist.Equiv
module Verilog = Shell_netlist.Verilog
module Specialize = Shell_netlist.Specialize
module Solver = Shell_sat.Solver
module Opt = Shell_synth.Opt
module Lut_map = Shell_synth.Lut_map
module Mux_chain = Shell_synth.Mux_chain
module Schemes = Shell_locking.Schemes
module Locked = Shell_locking.Locked
module Emit = Shell_fabric.Emit
module Style = Shell_fabric.Style
module Bitstream = Shell_fabric.Bitstream
module Flow = Shell_core.Flow
module Extraction = Shell_core.Extraction
module Rng = Shell_util.Rng
module Diag = Shell_util.Diag

type verdict = Pass | Fail of string | Skip of string

type t = {
  name : string;
  stream : int;
  description : string;
  applies : Gen.shape -> bool;
  run : Rng.t -> N.t -> verdict;
  inject : Rng.t -> N.t -> (string * verdict) option;
      (** plant one fault and re-judge; the label names the fault
          class (e.g. ["lut-bit-flip"]) so the self-test can demand
          per-class coverage *)
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let vec_str v = String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let has_dff nl = N.count_kind nl (function Cell.Dff -> true | _ -> false) > 0

let comb_of nl = if has_dff nl then N.comb_view nl else nl

let rand_bits rng n = Array.init n (fun _ -> Rng.bool rng)

(* Vector equivalence as a verdict. Sequential designs go through the
   clocked black-box check (no scan-port-order assumption, so passes
   that reorder flops are not falsely flagged). *)
let equiv_verdict ?(vectors = 64) rng ~keys_a ~keys_b a b =
  let render = function
    | Equiv.Equivalent -> Pass
    | Equiv.Counterexample v -> Fail ("differs on input " ^ vec_str v)
  in
  match
    if has_dff a || has_dff b then
      Equiv.check_sequential ~runs:4 ~cycles:16 ~rng ~keys_a ~keys_b a b
    else Equiv.check ~vectors ~rng ~keys_a ~keys_b a b
  with
  | v -> render v
  | exception Invalid_argument m -> Fail ("comparator: " ^ m)

(* Run a semantics-preserving transform and compare against the
   original under a shared random key. A transform that raises is a
   bug, not a skip. *)
let transform_oracle ~name ~stream ~description ?(applies = fun _ -> true) f =
  let compare_pair rng a b =
    let keys = rand_bits rng (List.length (N.keys a)) in
    let keys_b =
      if List.length (N.keys b) = Array.length keys then keys else [||]
    in
    equiv_verdict rng ~keys_a:keys ~keys_b a b
  in
  let run rng nl =
    match f rng nl with
    | nl' -> compare_pair rng nl nl'
    | exception Diag.Error d -> Skip (Diag.to_string d)
    | exception Invalid_argument m -> Fail (name ^ " raised Invalid_argument: " ^ m)
    | exception Failure m -> Fail (name ^ " raised Failure: " ^ m)
  in
  let inject rng nl =
    match f rng nl with
    | exception _ -> None
    | nl' -> (
        match Inject.mutate rng nl' with
        | None -> None
        | Some m -> Some (m.Inject.label, compare_pair rng nl m.Inject.netlist))
  in
  { name; stream; description; applies; run; inject }

(* ------------------------------------------------------------------ *)
(* Simulation vs CNF                                                   *)
(* ------------------------------------------------------------------ *)

(* Evaluate [encoded] through Tseitin + CDCL on concrete vectors and
   compare with simulation of [golden] on one Simw lane. *)
let sim_cnf_compare rng ~golden ~encoded =
  let n_in = Array.length (N.input_nets golden) in
  let n_key = Array.length (N.key_nets golden) in
  let sim = Simw.create golden in
  let cnf = Cnf.encode encoded in
  let rec go k =
    if k >= 8 then Pass
    else begin
      let ins = rand_bits rng n_in in
      let keys = rand_bits rng n_key in
      let outs =
        Simw.lane (Simw.eval_comb sim ~keys ~lanes:1 (Simw.pack [| ins |])) 0
      in
      let solver = Solver.create () in
      Solver.ensure_vars solver cnf.Cnf.nvars;
      List.iter (Solver.add_clause solver) cnf.Cnf.clauses;
      Array.iteri
        (fun i net -> Solver.add_clause solver [ Cnf.lit cnf net ins.(i) ])
        (N.input_nets encoded);
      Array.iteri
        (fun i net -> Solver.add_clause solver [ Cnf.lit cnf net keys.(i) ])
        (N.key_nets encoded);
      match Solver.solve solver with
      | Solver.Sat ->
          let cnf_outs =
            Array.map
              (fun net -> Solver.value solver (Cnf.var_of net cnf))
              (N.output_nets encoded)
          in
          if cnf_outs = outs then go (k + 1)
          else
            Fail
              (Printf.sprintf "input %s: sim=%s cnf=%s" (vec_str ins)
                 (vec_str outs) (vec_str cnf_outs))
      | Solver.Unsat -> Fail ("CNF unsatisfiable under input " ^ vec_str ins)
      | Solver.Unknown -> Skip "solver budget exhausted"
    end
  in
  go 0

let sim_cnf =
  {
    name = "sim_cnf";
    stream = 0;
    description = "simulation vs Tseitin CNF + SAT on random vectors";
    applies = (fun _ -> true);
    run =
      (fun rng nl ->
        let cv = comb_of nl in
        if N.has_comb_cycle cv then Skip "combinational cycle"
        else sim_cnf_compare rng ~golden:cv ~encoded:cv);
    inject =
      (fun rng nl ->
        let cv = comb_of nl in
        if N.has_comb_cycle cv then None
        else
          match Inject.mutate rng cv with
          | None -> None
          | Some m ->
              Some
                ( m.Inject.label,
                  sim_cnf_compare rng ~golden:cv ~encoded:m.Inject.netlist ));
  }

(* ------------------------------------------------------------------ *)
(* Rewrite / synthesis passes vs Equiv                                 *)
(* ------------------------------------------------------------------ *)

let opt =
  transform_oracle ~name:"opt" ~stream:1
    ~description:"Opt.simplify preserves function"
    (fun _rng nl -> Opt.simplify nl)

let lut_map =
  transform_oracle ~name:"lut_map" ~stream:2
    ~description:"Lut_map.map (random k) preserves function"
    (fun rng nl -> fst (Lut_map.map ~k:(2 + Rng.int rng 5) nl))

let mux_chain =
  transform_oracle ~name:"mux_chain" ~stream:3
    ~description:"Mux_chain.map preserves function"
    (fun _rng nl -> fst (Mux_chain.map nl))

(* ------------------------------------------------------------------ *)
(* Key binding (Specialize) vs keyed simulation                        *)
(* ------------------------------------------------------------------ *)

let specialize =
  let bind rng nl =
    let bits = 2 + Rng.int rng 5 in
    let lk = Schemes.xor_keys ~seed:(Rng.int rng 1_000_000) ~bits nl in
    let locked = lk.Locked.locked in
    let guess = rand_bits rng (List.length (N.keys locked)) in
    (locked, guess, Specialize.bind_keys locked guess)
  in
  {
    name = "specialize";
    stream = 4;
    description = "bind_keys under a random key agrees with keyed simulation";
    applies = (fun s -> s.Gen.key_bits = 0);
    run =
      (fun rng nl ->
        let locked, guess, bound = bind rng nl in
        equiv_verdict rng ~keys_a:guess ~keys_b:[||] locked bound);
    inject =
      (fun rng nl ->
        let locked, guess, bound = bind rng nl in
        match Inject.mutate rng bound with
        | None -> None
        | Some m ->
            Some
              ( m.Inject.label,
                equiv_verdict rng ~keys_a:guess ~keys_b:[||] locked
                  m.Inject.netlist ));
  }

(* ------------------------------------------------------------------ *)
(* Region extraction / splice identity                                 *)
(* ------------------------------------------------------------------ *)

let splice =
  let cut_of rng nl =
    let member = Array.init (N.num_cells nl) (fun _ -> Rng.bool rng) in
    Extraction.extract nl ~member:(fun i -> member.(i))
  in
  {
    name = "splice";
    stream = 5;
    description = "extracting a random region and splicing it back is identity";
    applies = (fun _ -> true);
    run =
      (fun rng nl ->
        let keys = rand_bits rng (List.length (N.keys nl)) in
        match cut_of rng nl with
        | exception Invalid_argument m -> Fail ("extract raised: " ^ m)
        | cut ->
            let back =
              Extraction.reassemble nl cut ~replacement:cut.Extraction.sub
            in
            if List.length (N.keys back) <> Array.length keys then
              Fail "splice changed the key ports"
            else equiv_verdict rng ~keys_a:keys ~keys_b:keys nl back);
    inject =
      (fun rng nl ->
        let keys = rand_bits rng (List.length (N.keys nl)) in
        match cut_of rng nl with
        | exception Invalid_argument _ -> None
        | cut -> (
            match Inject.mutate rng cut.Extraction.sub with
            | None -> None
            | Some m ->
                let back =
                  Extraction.reassemble nl cut ~replacement:m.Inject.netlist
                in
                Some
                  ( m.Inject.label,
                    equiv_verdict rng ~keys_a:keys ~keys_b:keys nl back )));
  }

(* ------------------------------------------------------------------ *)
(* Locking schemes: correct key restores the original                  *)
(* ------------------------------------------------------------------ *)

let lock_schemes =
  let lock rng nl =
    let seed = Rng.int rng 1_000_000 in
    match Rng.int rng 4 with
    | 0 -> Schemes.xor_keys ~seed ~bits:(1 + Rng.int rng 6) nl
    | 1 -> Schemes.random_lut ~seed ~gates:(1 + Rng.int rng 4) nl
    | 2 -> Schemes.heuristic_lut ~seed ~gates:(1 + Rng.int rng 4) nl
    | _ -> Schemes.mux_routing ~seed ~width:(1 lsl (1 + Rng.int rng 2)) nl
  in
  {
    name = "lock_schemes";
    stream = 6;
    description = "locked design under the correct key matches the original";
    applies = (fun s -> s.Gen.key_bits = 0);
    run =
      (fun rng nl ->
        match lock rng nl with
        | exception Invalid_argument m -> Skip ("scheme inapplicable: " ^ m)
        | exception Failure m -> Skip ("scheme inapplicable: " ^ m)
        | exception Diag.Error d -> Skip (Diag.to_string d)
        | lk ->
            if Locked.verify ~vectors:64 ~original:nl lk then Pass
            else Fail (lk.Locked.scheme ^ ": correct key does not unlock"));
    inject =
      (fun rng nl ->
        match lock rng nl with
        | exception _ -> None
        | lk -> (
            match Inject.mutate rng lk.Locked.locked with
            | None -> None
            | Some m ->
                let faulted = { lk with Locked.locked = m.Inject.netlist } in
                Some
                  ( m.Inject.label,
                    if Locked.verify ~vectors:64 ~original:nl faulted then Pass
                    else Fail "injected fault detected" )));
  }

(* ------------------------------------------------------------------ *)
(* Full pipeline: lock then unlock with the correct bitstream          *)
(* ------------------------------------------------------------------ *)

let pipeline_cfg rng =
  {
    (Flow.shell_config
       ~target:
         (Flow.Fixed { route = [ "/b0" ]; lgc = [ "/b1" ]; label = "fuzz" })
       ())
    with
    Flow.style = Style.Fabulous_muxchain;
    seed = Rng.int rng 1_000_000;
  }

let pipeline =
  let run_locked rng nl = Flow.run ~use_cache:false (pipeline_cfg rng) nl in
  {
    name = "pipeline";
    stream = 7;
    description =
      "full lock pipeline; reassembled design under the correct bitstream \
       matches the original";
    applies =
      (fun s ->
        s.Gen.blocks >= 2 && s.Gen.key_bits = 0 && s.Gen.with_muxes
        && s.Gen.n_gates >= 24);
    run =
      (fun rng nl ->
        match run_locked rng nl with
        | exception Diag.Error d -> Skip (Diag.to_string d)
        | r ->
            if Flow.verify ~runs:4 ~cycles:16 r then Pass
            else Fail "locked design under correct bitstream differs");
    inject =
      (fun rng nl ->
        match run_locked rng nl with
        | exception Diag.Error _ -> None
        | r -> (
            let lk = Flow.locked_sub r in
            match Inject.mutate rng lk.Locked.locked with
            | None -> None
            | Some m ->
                let faulted = { lk with Locked.locked = m.Inject.netlist } in
                let original = r.Flow.cut.Extraction.sub in
                Some
                  ( m.Inject.label,
                    if Locked.verify ~vectors:64 ~original faulted then Pass
                    else Fail "injected fault detected" )));
  }

(* ------------------------------------------------------------------ *)
(* Fabric emission: bitstream round-trip + configured-fabric function  *)
(* ------------------------------------------------------------------ *)

let emit_fabric =
  let emit rng nl =
    let mapped, _ = Lut_map.map ~k:4 nl in
    let e = Emit.emit ~style:Style.Fabulous_muxchain ~seed:(Rng.int rng 1_000_000) mapped in
    (mapped, e)
  in
  let bound_of e =
    Specialize.bind_keys e.Emit.locked (Bitstream.bits e.Emit.bitstream)
  in
  {
    name = "emit_fabric";
    stream = 8;
    description =
      "emitted fabric under its own bitstream matches the mapped circuit; \
       bitstream file format round-trips";
    applies = (fun s -> s.Gen.key_bits = 0);
    run =
      (fun rng nl ->
        match emit rng nl with
        | exception Diag.Error d -> Skip (Diag.to_string d)
        | mapped, e ->
            let b = e.Emit.bitstream in
            let b' = Bitstream.deserialize (Bitstream.serialize b) in
            if Bitstream.bits b' <> Bitstream.bits b then
              Fail "bitstream bits do not round-trip through serialize"
            else if Bitstream.segments b' <> Bitstream.segments b then
              Fail "bitstream segment directory does not round-trip"
            else if Bitstream.to_hex b' <> Bitstream.to_hex b then
              Fail "bitstream hex rendering drifts after round-trip"
            else
              equiv_verdict rng ~keys_a:[||] ~keys_b:[||] mapped (bound_of e));
    inject =
      (fun rng nl ->
        match emit rng nl with
        | exception Diag.Error _ -> None
        | mapped, e -> (
            match Inject.mutate rng (bound_of e) with
            | None -> None
            | Some m ->
                Some
                  ( m.Inject.label,
                    equiv_verdict rng ~keys_a:[||] ~keys_b:[||] mapped
                      m.Inject.netlist )));
  }

(* ------------------------------------------------------------------ *)
(* Verilog emission round-trip + lint                                  *)
(* ------------------------------------------------------------------ *)

(* Static lint of the emitted text: no bare "keyinput" declarations
   (not a Verilog keyword) and no duplicate declared identifiers (the
   fallback-name aliasing bug). *)
let lint_verilog src =
  let declared = Hashtbl.create 32 in
  let problem = ref None in
  let note m = if !problem = None then problem := Some m in
  let declare nm =
    if Hashtbl.mem declared nm then note ("duplicate identifier " ^ nm)
    else Hashtbl.add declared nm ()
  in
  String.split_on_char '\n' src
  |> List.iter (fun line ->
         let line = String.trim line in
         let starts p =
           String.length line >= String.length p
           && String.sub line 0 (String.length p) = p
         in
         let decl_name p =
           (* "input x;" -> "x" *)
           let s = String.sub line (String.length p) (String.length line - String.length p) in
           match String.index_opt s ';' with
           | Some i -> Some (String.trim (String.sub s 0 i))
           | None -> None
         in
         if starts "keyinput " then note "bare keyinput declaration"
         else
           List.iter
             (fun p ->
               if starts p then
                 match decl_name p with
                 | Some nm when nm <> "" -> declare nm
                 | _ -> note ("malformed declaration: " ^ line))
             [ "input "; "(* keyinput *) input "; "output "; "wire " ]);
  !problem

let verilog =
  let roundtrip nl = Verilog.parse (Verilog.to_string nl) in
  {
    name = "verilog";
    stream = 9;
    description = "emit -> lint -> reparse round-trip preserves the netlist";
    applies = (fun _ -> true);
    run =
      (fun rng nl ->
        let src = Verilog.to_string nl in
        match lint_verilog src with
        | Some m -> Fail ("lint: " ^ m)
        | None -> (
            match Verilog.parse src with
            | exception Verilog.Parse_error m -> Fail ("reparse: " ^ m)
            | nl2 ->
                (* the emitter may add Buf alias cells for port
                   aliasing, so compare non-Buf populations *)
                let logic n =
                  N.count_kind n (function Cell.Buf -> false | _ -> true)
                in
                if logic nl2 <> logic nl then
                  Fail
                    (Printf.sprintf "cell count drift: %d -> %d" (logic nl)
                       (logic nl2))
                else
                  let keys = rand_bits rng (List.length (N.keys nl)) in
                  equiv_verdict rng ~keys_a:keys ~keys_b:keys nl nl2));
    inject =
      (fun rng nl ->
        match roundtrip nl with
        | exception Verilog.Parse_error _ -> None
        | nl2 -> (
            match Inject.mutate rng nl2 with
            | None -> None
            | Some m ->
                let keys = rand_bits rng (List.length (N.keys nl)) in
                Some
                  ( m.Inject.label,
                    equiv_verdict rng ~keys_a:keys ~keys_b:keys nl
                      m.Inject.netlist )));
  }

(* ------------------------------------------------------------------ *)
(* Static lint battery                                                 *)
(* ------------------------------------------------------------------ *)

module Lint = Shell_lint.Lint
module Lint_rules = Shell_lint.Rules

let lint_errors ?reference nl =
  let subject = Lint.subject ?reference nl in
  let r = Lint.run ~rules:Lint_rules.all subject in
  List.filter (fun (f : Lint.finding) -> f.Lint.severity = Lint.Error)
    r.Lint.findings

let lint_fingerprints fs =
  List.map
    (fun (f : Lint.finding) -> f.Lint.rule ^ "|" ^ f.Lint.where)
    fs

let lint =
  {
    name = "lint";
    stream = 11;
    description =
      "static lint battery: structural rules stay clean on generated \
       netlists; the reference-diff rule flags injected faults";
    applies = (fun _ -> true);
    run =
      (fun _rng nl ->
        (* generated netlists are valid and acyclic by construction, so
           the structural pack's error rules must all stay silent;
           security errors (e.g. key-dead) are excluded because a
           random key may legitimately feed only dead logic *)
        let subject = Lint.subject nl in
        let r = Lint.run ~rules:Lint_rules.structural subject in
        match
          List.filter
            (fun (f : Lint.finding) -> f.Lint.severity = Lint.Error)
            r.Lint.findings
        with
        | [] -> Pass
        | f :: _ ->
            Fail
              (Printf.sprintf "%s at %s: %s" f.Lint.rule f.Lint.where
                 f.Lint.message));
    inject =
      (fun rng nl ->
        match Inject.mutate rng nl with
        | None -> None
        | Some m ->
            (* a fault is caught when linting the mutant against the
               pristine netlist raises an error absent from the
               baseline run (in practice: ref-mismatch) *)
            let base = lint_fingerprints (lint_errors nl) in
            let mutant =
              lint_fingerprints (lint_errors ~reference:nl m.Inject.netlist)
            in
            let fresh =
              List.filter (fun fp -> not (List.mem fp base)) mutant
            in
            Some
              ( m.Inject.label,
                if fresh <> [] then Fail "injected fault flagged by lint"
                else Pass ));
  }

(* ------------------------------------------------------------------ *)
(* Word-level simulator vs scalar reference                            *)
(* ------------------------------------------------------------------ *)

(* The generator never emits Config_latch cells, so graft two onto a
   copy — fed from the first output's net, mixed back out through an
   XOR probe — to exercise Simw's broadcast latch lanes and the
   bitstream-loading path on every case. *)
let with_config_latches nl =
  let outs = N.output_nets nl in
  if Array.length outs = 0 then nl
  else begin
    let nl' = N.copy nl in
    let src = outs.(0) in
    let q0 = N.new_net nl' and q1 = N.new_net nl' in
    N.add_cell nl' (Cell.make ~origin:"top/cfg" Cell.Config_latch [| src |] q0);
    N.add_cell nl' (Cell.make ~origin:"top/cfg" Cell.Config_latch [| src |] q1);
    let p = N.xor_ ~origin:"top/cfg" nl' (N.xor_ ~origin:"top/cfg" nl' q0 q1) src in
    N.add_output nl' "zcfgprobe" p;
    nl'
  end

(* Step a random number of lanes through Simw and, lane by lane, an
   army of scalar Ref_sims over the same stimulus, same (broadcast) key
   and same config; EVERY net (not just the primary outputs) must agree
   on every cycle — the engines' bit-identity claim, and immune to
   faults masked downstream. [scalar] and [word] share ports and net
   numbering; faults are planted in [word] only. *)
let simw_compare rng ~scalar ~word ~config =
  let n_in = Array.length (N.input_nets scalar) in
  let n_key = Array.length (N.key_nets scalar) in
  let lanes = 1 + Rng.int rng Simw.width in
  let cycles = 4 in
  let keys = rand_bits rng n_key in
  match
    ( Array.init lanes (fun _ -> Ref_sim.create ~config scalar),
      Simw.create ~config word )
  with
  | exception Invalid_argument m -> Fail ("simw: " ^ m)
  | sims, simw ->
      let verdict = ref Pass in
      for c = 0 to cycles - 1 do
        let vecs = Array.make lanes [||] in
        for l = 0 to lanes - 1 do
          vecs.(l) <- rand_bits rng n_in
        done;
        ignore (Simw.step simw ~keys ~lanes (Simw.pack vecs));
        let wnets = Simw.net_values simw ~lanes in
        for l = 0 to lanes - 1 do
          ignore (Ref_sim.step sims.(l) ~keys vecs.(l));
          let snets = Ref_sim.net_values sims.(l) in
          let wlane = Simw.lane wnets l in
          if !verdict = Pass && snets <> wlane then begin
            let n = ref 0 in
            while snets.(!n) = wlane.(!n) do
              incr n
            done;
            verdict :=
              Fail
                (Printf.sprintf "cycle %d lane %d input %s: net n%d sim=%b simw=%b"
                   c l (vec_str vecs.(l)) !n snets.(!n) wlane.(!n))
          end
        done
      done;
      !verdict

(* The generator's LUTs take at most four inputs, and its Mux4 and
   Const cells are occasional, so graft one of each kind Simw lowers
   separately onto a copy: a 6-input LUT (its evaluator splits the
   table into two 32-row halves), a Mux4 and both constants over the
   input nets, mixed into one XOR probe output. A fixed table keeps
   the case's RNG stream as it was. *)
let with_wide_cells nl =
  let ins = N.input_nets nl in
  if Array.length ins = 0 then nl
  else begin
    let nl' = N.copy nl in
    let origin = "top/wide" in
    let pick i = ins.(i mod Array.length ins) in
    let tt = Shell_util.Truthtab.create ~arity:6 ~bits:0x6a09e667f3bcc908L in
    let l = N.lut ~origin nl' tt (Array.init 6 pick) in
    let m =
      N.mux4 ~origin nl' ~s0:(pick 1) ~s1:(pick 2)
        (Array.init 4 (fun i -> pick (i + 3)))
    in
    let c =
      N.xor_ ~origin nl' (N.const ~origin nl' true) (N.const ~origin nl' false)
    in
    let probe = N.xor_ ~origin nl' (N.xor_ ~origin nl' l m) c in
    N.add_output nl' "zwideprobe" probe;
    nl'
  end

let simw_vs_sim =
  let config_of rng nl =
    let n = Simw.num_config_latches nl in
    let c = Array.make n false in
    for i = 0 to n - 1 do
      c.(i) <- Rng.bool rng
    done;
    c
  in
  {
    name = "simw_vs_sim";
    stream = 12;
    description =
      "word-level Simw agrees bit-for-bit with the scalar reference Ref_sim \
       (DFF stepping and config-latch state included) at a random lane \
       count";
    applies = (fun _ -> true);
    run =
      (fun rng nl ->
        if N.has_comb_cycle (comb_of nl) then Skip "combinational cycle"
        else
          let subject = with_wide_cells (with_config_latches nl) in
          let config = config_of rng subject in
          simw_compare rng ~scalar:subject ~word:subject ~config);
    inject =
      (fun rng nl ->
        if N.has_comb_cycle (comb_of nl) then None
        else
          let subject = with_config_latches nl in
          let config = config_of rng subject in
          (* bias toward LUT mutants: the word-level cofactor recursion
             is this oracle's required fault class, and generic
             mutation only rarely lands on a LUT cell *)
          let rec pick tries =
            match Inject.mutate rng subject with
            | None -> None
            | Some m when m.Inject.label = "lut-bit-flip" || tries <= 1 ->
                Some m
            | Some _ -> pick (tries - 1)
          in
          match pick 3 with
          | None -> None
          | Some m ->
              Some
                ( m.Inject.label,
                  simw_compare rng ~scalar:subject ~word:m.Inject.netlist
                    ~config ));
  }

(* Report order. An oracle's RNG streams come from its [stream] number,
   never from its place in this list, so adding or dropping an oracle
   moves no other oracle's draws. A number is never reused: 10 belonged
   to the retired VCD oracle. test/fuzz_golden pins the streams. *)
let all =
  [
    sim_cnf;
    opt;
    lut_map;
    mux_chain;
    specialize;
    splice;
    lock_schemes;
    pipeline;
    emit_fabric;
    verilog;
    lint;
    simw_vs_sim;
  ]

let names = List.map (fun o -> o.name) all
let find nm = List.find_opt (fun o -> o.name = nm) all
