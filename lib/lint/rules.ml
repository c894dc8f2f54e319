module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab
module Fabric = Shell_fabric.Fabric
module Bitstream = Shell_fabric.Bitstream
module Resources = Shell_fabric.Resources
module Pnr = Shell_pnr.Pnr
open Lint

(* Partially-applied [Lint.finding] closes over the rule record, so
   every rule is defined as [let rec] on itself via a forward cell —
   simpler to just build the record twice; instead each [check] takes
   the rule through this helper. *)
let rule name pack severity help check =
  let rec r = { name; pack; severity; help; check = (fun ctx -> check r ctx) }
  in
  r

(* ---------------- structural pack ---------------- *)

let port_invalid =
  rule "port-invalid" Structural Error
    "a port names an out-of-range net or duplicates another port's name"
    (fun r ctx ->
      ctx.invalid
      |> List.filter_map (fun (iv, msg) ->
             match iv with
             | N.Bad_net_id { port; _ } | N.Duplicate_port { port } ->
                 Some (finding r ~where:("port:" ^ port) "%s" msg)
             | _ -> None))

let net_multi_driven =
  rule "net-multi-driven" Structural Error
    "a net is driven by more than one source" (fun r ctx ->
      ctx.invalid
      |> List.filter_map (fun (iv, msg) ->
             match iv with
             | N.Multiple_drivers { net; _ } ->
                 Some (finding r ~where:(Printf.sprintf "net:n%d" net) "%s" msg)
             | _ -> None))

let net_undriven =
  rule "net-undriven" Structural Error
    "an output or a cell input reads a floating net" (fun r ctx ->
      ctx.invalid
      |> List.filter_map (fun (iv, msg) ->
             match iv with
             | N.Undriven_output { port; _ } ->
                 Some (finding r ~where:("output:" ^ port) "%s" msg)
             | N.Undriven_read { net } ->
                 Some (finding r ~where:(Printf.sprintf "net:n%d" net) "%s" msg)
             | _ -> None))

let pp_cells scc =
  let shown = List.filteri (fun i _ -> i < 8) scc in
  String.concat "," (List.map string_of_int shown)
  ^ if List.length scc > 8 then ",..." else ""

let comb_cycle =
  rule "comb-cycle" Structural Error
    "the combinational part contains a cycle (unsynthesizable feedback)"
    (fun r ctx ->
      ctx.cycles.Dataflow.comb
      |> List.map (fun scc ->
             finding r
               ~where:(Printf.sprintf "cell:%d" (List.hd scc))
               "combinational cycle through %d cell%s: %s" (List.length scc)
               (if List.length scc = 1 then "" else "s")
               (pp_cells scc)))

let cell_dead =
  rule "cell-dead" Structural Warn
    "a cell's output reaches no primary output (dead logic)" (fun r ctx ->
      let nl = ctx.subj.netlist in
      (* grouped by origin: a dead block is one finding, not one per
         cell, and keeps a stable fingerprint as the block grows *)
      let order = ref [] in
      let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
      Array.iteri
        (fun i (c : Cell.t) ->
          if not ctx.reach.(c.Cell.out) then begin
            (match Hashtbl.find_opt groups c.Cell.origin with
            | Some l -> l := i :: !l
            | None ->
                Hashtbl.add groups c.Cell.origin (ref [ i ]);
                order := c.Cell.origin :: !order)
          end)
        (N.cells nl);
      List.rev_map
        (fun origin ->
          let cells = List.rev !(Hashtbl.find groups origin) in
          let n = List.length cells in
          finding r
            ~where:(if origin = "" then "cells" else "origin:" ^ origin)
            "%d cell%s%s reach%s no output: %s" n
            (if n = 1 then "" else "s")
            (if origin = "" then "" else Printf.sprintf " of origin %s" origin)
            (if n = 1 then "es" else "")
            (pp_cells cells))
        !order)

let output_constant =
  rule "output-constant" Structural Warn
    "a primary output is provably stuck at a constant" (fun r ctx ->
      N.outputs ctx.subj.netlist
      |> List.filter_map (fun (nm, net) ->
             match Dataflow.known ctx.values.(net) with
             | Some b ->
                 Some
                   (finding r ~where:("output:" ^ nm)
                      "output %s is the constant %d" nm
                      (if b then 1 else 0))
             | None -> None))

let lut_degenerate =
  rule "lut-degenerate" Structural Info
    "a LUT's table is constant or ignores one of its inputs" (fun r ctx ->
      let fs = ref [] in
      Array.iteri
        (fun i (c : Cell.t) ->
          match c.Cell.kind with
          | Cell.Lut tt -> (
              match Truthtab.is_const tt with
              | Some b ->
                  fs :=
                    finding r
                      ~where:(Printf.sprintf "cell:%d" i)
                      "lut%d computes the constant %d" (Truthtab.arity tt)
                      (if b then 1 else 0)
                    :: !fs
              | None ->
                  let unused = ref [] in
                  for v = Truthtab.arity tt - 1 downto 0 do
                    if not (Truthtab.depends_on tt v) then unused := v :: !unused
                  done;
                  if !unused <> [] then
                    fs :=
                      finding r
                        ~where:(Printf.sprintf "cell:%d" i)
                        "lut%d ignores input%s %s" (Truthtab.arity tt)
                        (if List.length !unused = 1 then "" else "s")
                        (String.concat ","
                           (List.map string_of_int !unused))
                      :: !fs)
          | _ -> ())
        (N.cells ctx.subj.netlist);
      List.rev !fs)

(* ---------------- security pack ---------------- *)

let key_dead =
  rule "key-dead" Security Error
    "a key bit has an empty influence cone (removal/SAT-prone)"
    (fun r ctx ->
      N.keys ctx.subj.netlist
      |> List.filter_map (fun (nm, net) ->
             if net >= 0 && net < Array.length ctx.reach && not ctx.reach.(net)
             then
               Some
                 (finding r ~where:("key:" ^ nm)
                    "key bit %s reaches no primary output: the locking it \
                     provides can be removed structurally"
                    nm)
             else None))

let key_blocked =
  rule "key-blocked" Security Warn
    "a key bit is constant-propagated away before any output" (fun r ctx ->
      N.keys ctx.subj.netlist
      |> List.filter_map (fun (nm, net) ->
             if
               net >= 0
               && net < Array.length ctx.reach
               && ctx.reach.(net)
               && not ctx.live.(net)
             then
               Some
                 (finding r ~where:("key:" ^ nm)
                    "key bit %s is wired towards the outputs but every path \
                     is cut by a proven constant: it cannot affect the \
                     function"
                    nm)
             else None))

let key_odc_dead =
  rule "key-odc-dead" Security Warn
    "a key bit is observable at no output under the ODC masking rules"
    (fun r ctx ->
      N.keys ctx.subj.netlist
      |> List.filter_map (fun (nm, net) ->
             if
               net >= 0
               && net < Array.length ctx.reach
               && ctx.reach.(net) && ctx.live.(net)
               && not ctx.odc.Odc.observable.(net)
             then
               Some
                 (finding r ~where:("key:" ^ nm)
                    "key bit %s survives the constant cuts but every read is \
                     masked (unsteerable mux select, cofactored LUT input): \
                     toggling it alone can never reach an output"
                    nm)
             else None))

let key_taint_collapse =
  rule "key-taint-collapse" Security Warn
    "a primary output's key-taint set is empty (cone simulable without \
     the key)"
    (fun r ctx ->
      if N.keys ctx.subj.netlist = [] then []
      else
        N.outputs ctx.subj.netlist
        |> List.filter_map (fun (nm, net) ->
               if
                 net < 0
                 || net >= Array.length ctx.key_reach
                 || not ctx.key_reach.(net)
               then
                 Some
                   (finding r ~where:("output:" ^ nm)
                      "no key bit can functionally reach output %s: its \
                       whole cone is attacker-simulable without the key"
                      nm)
               else None))

let scope_leak =
  rule "scope-leak" Security Warn
    "a key bit's 0/1 constant-propagation scores diverge (SCOPE-guessable)"
    (fun r ctx ->
      if N.keys ctx.subj.netlist = [] then []
      else
        Scope.scores ctx.subj.netlist
        |> List.filter_map (fun (b : Scope.bit_score) ->
               match Scope.guess b with
               | Some g ->
                   Some
                     (finding r
                        ~where:("key:" ^ b.Scope.name)
                        "pinning %s to %d collapses %d net%s vs %d the other \
                         way: SCOPE-style scoring guesses the bit is %d \
                         oracle-free"
                        b.Scope.name
                        (if g then 0 else 1)
                        (max b.Scope.score0 b.Scope.score1)
                        (if max b.Scope.score0 b.Scope.score1 = 1 then ""
                         else "s")
                        (min b.Scope.score0 b.Scope.score1)
                        (if g then 1 else 0))
               | None -> None))

let mux_chain_cycle =
  rule "mux-chain-cycle" Security Error
    "MUX cells form a cycle, violating the non-cyclic ROUTE-chain mapping"
    (fun r ctx ->
      ctx.cycles.Dataflow.mux
      |> List.map (fun scc ->
             finding r
               ~where:(Printf.sprintf "cell:%d" (List.hd scc))
               "cyclic MUX chain through %d cell%s: %s (the paper's ROUTE \
                mapping requires non-cyclical chains)"
               (List.length scc)
               (if List.length scc = 1 then "" else "s")
               (pp_cells scc)))

let lgc_depth =
  rule "lgc-depth" Security Warn
    "the selected LGC is not depth-0 adjacent to the ROUTE cone"
    (fun r ctx ->
      match ctx.subj.selection with
      | None -> []
      | Some { design; route_origins; lgc_origins } -> (
          let cells = N.cells design in
          let matching pats =
            let acc = ref [] in
            Array.iteri
              (fun i c -> if Cell.origin_matches pats c then acc := i :: !acc)
              cells;
            List.rev !acc
          in
          let route = matching route_origins and lgc = matching lgc_origins in
          if route = [] || lgc = [] then []
          else begin
            (* BFS over "shares a net" cell adjacency: distance 1 means
               a direct wire between the families, i.e. the paper's
               depth 0. Cells are reached in nondecreasing distance, so
               the first LGC cell reached is the nearest and ends the
               search *)
            let n = Array.length cells in
            let is_lgc = Array.make n false in
            List.iter (fun i -> is_lgc.(i) <- true) lgc;
            let dist = Array.make n max_int in
            let best = ref max_int in
            let q = Queue.create () in
            List.iter
              (fun i ->
                dist.(i) <- 0;
                if is_lgc.(i) then best := 0;
                Queue.add i q)
              route;
            while !best = max_int && not (Queue.is_empty q) do
              let i = Queue.take q in
              let visit j =
                if dist.(j) = max_int then begin
                  dist.(j) <- dist.(i) + 1;
                  if is_lgc.(j) && !best = max_int then best := dist.(j);
                  Queue.add j q
                end
              in
              Array.iter
                (fun net ->
                  match N.driver design net with
                  | Some j -> visit j
                  | None -> ())
                cells.(i).Cell.ins;
              List.iter visit (N.fanout design cells.(i).Cell.out)
            done;
            let best = !best in
            if best = max_int then
              [
                finding r ~where:"selection:lgc"
                  "selected LGC shares no connected component with the ROUTE \
                   cone";
              ]
            else if best > 1 then
              [
                finding r ~where:"selection:lgc"
                  "selected LGC is %d cell hops from the ROUTE cone (depth \
                   %d; the paper keeps LGC directly adjacent, depth 0)"
                  best (best - 1);
              ]
            else []
          end))

let kind_eq a b =
  match (a, b) with
  | Cell.Lut t1, Cell.Lut t2 -> Truthtab.equal t1 t2
  | _ -> a = b

let ref_mismatch =
  rule "ref-mismatch" Security Error
    "the netlist structurally deviates from its golden reference (tampering)"
    (fun r ctx ->
      match ctx.subj.reference with
      | None -> []
      | Some golden ->
          let nl = ctx.subj.netlist in
          let fs = ref [] in
          let add f = fs := f :: !fs in
          if
            N.inputs nl <> N.inputs golden
            || N.keys nl <> N.keys golden
            || N.outputs nl <> N.outputs golden
          then
            add
              (finding r ~where:"ports"
                 "port lists differ from the reference netlist");
          let a = N.cells nl and b = N.cells golden in
          if Array.length a <> Array.length b then
            add
              (finding r ~where:"cells" "%d cells where the reference has %d"
                 (Array.length a) (Array.length b));
          for i = 0 to min (Array.length a) (Array.length b) - 1 do
            let ca = a.(i) and cb = b.(i) in
            if not (kind_eq ca.Cell.kind cb.Cell.kind) then
              add
                (finding r
                   ~where:(Printf.sprintf "cell:%d" i)
                   "cell %d is %s where the reference has %s" i
                   (Cell.kind_name ca.Cell.kind)
                   (Cell.kind_name cb.Cell.kind))
            else if ca.Cell.ins <> cb.Cell.ins || ca.Cell.out <> cb.Cell.out
            then
              add
                (finding r
                   ~where:(Printf.sprintf "cell:%d" i)
                   "cell %d (%s) is rewired vs the reference" i
                   (Cell.kind_name ca.Cell.kind))
          done;
          List.rev !fs)

(* ---------------- fabric pack ---------------- *)

let fabric_unused =
  rule "fabric-unused" Fabric Warn
    "the fabric retains unused resources (shrink not applied)" (fun r ctx ->
      match ctx.subj.pnr with
      | Some pr when not ctx.subj.shrunk ->
          let c = Pnr.fit_counts pr in
          let tiles = Fabric.clb_tiles pr.Pnr.fabric in
          let used_tiles = pr.Pnr.placement.Pnr.used_tiles in
          List.filter_map
            (fun (what, used, cap) ->
              if cap > used then
                Some
                  (finding r ~where:("fabric:" ^ what)
                     "%d of %d %s unused but still materialized (run the \
                      shrink step)"
                     (cap - used) cap what)
              else None)
            [
              ("tiles", used_tiles, tiles);
              ("luts", c.Pnr.used_luts, c.Pnr.lut_capacity);
              ("chain", c.Pnr.used_chain, c.Pnr.chain_capacity);
            ]
      | _ -> [])

let config_dangling =
  rule "config-dangling" Fabric Error
    "a bitstream config bit drives nothing in the locked netlist"
    (fun r ctx ->
      match ctx.subj.bitstream with
      | None -> []
      | Some bs ->
          let nl = ctx.subj.netlist in
          let keys = Array.of_list (N.keys nl) in
          if Array.length keys <> Bitstream.length bs then []
            (* the accounting rule reports the mismatch *)
          else
            let out_nets = N.output_nets nl in
            let is_output net = Array.exists (fun o -> o = net) out_nets in
            Bitstream.segments bs
            |> List.filter_map (fun (s : Bitstream.segment) ->
                   let dangling = ref [] in
                   for b = s.Bitstream.offset + s.Bitstream.length - 1
                       downto s.Bitstream.offset do
                     let nm, net = keys.(b) in
                     if N.fanout nl net = [] && not (is_output net) then
                       dangling := nm :: !dangling
                   done;
                   match !dangling with
                   | [] -> None
                   | d ->
                       Some
                         (finding r
                            ~where:("segment:" ^ s.Bitstream.label)
                            "%d of %d config bit%s of %s drive nothing: %s"
                            (List.length d) s.Bitstream.length
                            (if s.Bitstream.length = 1 then "" else "s")
                            s.Bitstream.label (String.concat "," d))))

let is_pow2 n = n > 0 && n land (n - 1) = 0

let bitstream_accounting =
  rule "bitstream-accounting" Fabric Error
    "bitstream directory, key ports and resource inventory disagree"
    (fun r ctx ->
      match ctx.subj.bitstream with
      | None -> []
      | Some bs ->
          let fs = ref [] in
          let add f = fs := f :: !fs in
          let len = Bitstream.length bs in
          let segs = Bitstream.segments bs in
          let sum =
            List.fold_left (fun a (s : Bitstream.segment) -> a + s.length) 0
              segs
          in
          if sum <> len then
            add
              (finding r ~where:"segments"
                 "segment directory covers %d bits, bitstream carries %d" sum
                 len);
          let seen = Hashtbl.create 16 in
          List.iter
            (fun (s : Bitstream.segment) ->
              if Hashtbl.mem seen s.Bitstream.label then
                add
                  (finding r
                     ~where:("segment:" ^ s.Bitstream.label)
                     "duplicate segment label %s" s.Bitstream.label)
              else Hashtbl.add seen s.Bitstream.label ())
            segs;
          List.iter
            (fun (s : Bitstream.segment) ->
              if
                Bitstream.kind_of_label s.Bitstream.label = Bitstream.Table
                && not (is_pow2 s.Bitstream.length)
              then
                add
                  (finding r
                     ~where:("segment:" ^ s.Bitstream.label)
                     "table segment %s holds %d bits — not a power of two, \
                      so it cannot be a LUT truth table"
                     s.Bitstream.label s.Bitstream.length))
            segs;
          let nkeys = List.length (N.keys ctx.subj.netlist) in
          if nkeys > 0 && nkeys <> len then
            add
              (finding r ~where:"keys"
                 "locked netlist exposes %d key bits, bitstream carries %d"
                 nkeys len);
          (match ctx.subj.used with
          | Some u when u.Resources.config_bits <> len ->
              add
                (finding r ~where:"config_bits"
                   "resource inventory accounts %d config bits, bitstream \
                    carries %d"
                   u.Resources.config_bits len)
          | _ -> ());
          List.rev !fs)

(* ---------------- registry ---------------- *)

let structural =
  [
    port_invalid;
    net_multi_driven;
    net_undriven;
    comb_cycle;
    cell_dead;
    output_constant;
    lut_degenerate;
  ]

let security =
  [
    key_dead;
    key_blocked;
    key_odc_dead;
    key_taint_collapse;
    scope_leak;
    mux_chain_cycle;
    lgc_depth;
    ref_mismatch;
  ]
let fabric = [ fabric_unused; config_dangling; bitstream_accounting ]
let all = structural @ security @ fabric
let find name = List.find_opt (fun r -> r.name = name) all
