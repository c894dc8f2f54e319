(* Job execution shared by the CLI and the daemon.

   The serve contract is byte-identity: a job submitted over the
   socket must return exactly the bytes the equivalent CLI invocation
   prints. The only way to guarantee that across refactors is for
   both sides to call the same functions — so the CLI's
   benchmark/TfR/flow/render plumbing lives here and
   [bin/shell_cli.ml] is a thin argument-parsing shell over it.
   Everything returns [(_, Diag.t) result]; only the CLI turns errors
   into [exit 1]. *)

module F = Shell_fabric
module L = Shell_locking
module A = Shell_attacks
module C = Shell_core
module Circ = Shell_circuits
module Fz = Shell_fuzz
module Lint = Shell_lint.Lint
module Rules = Shell_lint.Rules
module Diag = Shell_util.Diag
module J = Shell_util.Jsonw
module Obs = Shell_util.Obs
module P = Protocol

let ( let* ) = Result.bind

(* No ~pass here: these diagnostics render on the CLI's stderr too,
   where the historical messages had no pass prefix. *)
let errf fmt = Format.kasprintf (fun m -> Error (Diag.make m)) fmt

(* ---------------- shared lookups ---------------- *)

let m_designs_elaborated =
  Obs.counter ~help:"bundled designs elaborated (design memo misses)"
    "designs_elaborated"

(* The bundled designs: each one's elaboration, SheLL TfR default and
   memo. A memo holds the one design every job of the process reads;
   no flow mutates its input, so sharing it changes no output. *)
type builtin = {
  elaborate : unit -> Shell_netlist.Netlist.t;
  tfr : (string list * string list * string) option;
  memo : Shell_netlist.Netlist.t option Atomic.t;
}

let builtins =
  let entry elaborate tfr = { elaborate; tfr; memo = Atomic.make None } in
  List.map
    (fun (e : Circ.Catalog.entry) ->
      let t = e.Circ.Catalog.tfr_shell in
      ( e.Circ.Catalog.name,
        entry e.Circ.Catalog.netlist
          (Some (t.Circ.Catalog.route, t.Circ.Catalog.lgc, t.Circ.Catalog.label))
      ))
    Circ.Catalog.all
  @ [
      ( "soc",
        entry Circ.Soc.netlist
          (Some
             ([ "/xbar" ], [ ":wrap_core2"; ":wrap_core4" ], "Xbar + wrappers"))
      );
      ( "xbar",
        entry
          (fun () -> Circ.Axi_xbar.netlist ())
          (Some ([ ":_xbar_route"; ":_xbar_arb" ], [], "whole Xbar")) );
      ("desx", entry (fun () -> Circ.Desx.netlist ()) None);
    ]

(* Names match in any case, as [Catalog.find] matches catalog names. *)
let find_builtin name =
  let canonical =
    match Circ.Catalog.find name with
    | Some e -> e.Circ.Catalog.name
    | None -> String.lowercase_ascii name
  in
  List.assoc_opt canonical builtins

(* Elaborated once per process and published whole: a domain that loses
   the race to fill the memo elaborated in vain and takes the winner's
   design. *)
let netlist_of_bench name =
  match find_builtin name with
  | None -> errf "unknown benchmark %S" name
  | Some b -> (
      match Atomic.get b.memo with
      | Some nl -> Ok nl
      | None ->
          let nl = b.elaborate () in
          Obs.incr m_designs_elaborated;
          if Atomic.compare_and_set b.memo None (Some nl) then Ok nl
          else Ok (Option.value (Atomic.get b.memo) ~default:nl))

let clear_designs () =
  List.iter (fun (_, b) -> Atomic.set b.memo None) builtins

let default_tfr name = Option.bind (find_builtin name) (fun b -> b.tfr)

(* The wire names for fabric styles — same spellings as the CLI's
   --style enum, so specs round-trip through both front ends. *)
let style_id = function
  | F.Style.Openfpga -> "openfpga"
  | F.Style.Fabulous_std -> "fabulous"
  | F.Style.Fabulous_muxchain -> "muxchain"

let style_of_string = function
  | "openfpga" -> Ok F.Style.Openfpga
  | "fabulous" -> Ok F.Style.Fabulous_std
  | "muxchain" -> Ok F.Style.Fabulous_muxchain
  | s -> errf "unknown fabric style %S (openfpga, fabulous or muxchain)" s

(* "xor:8", "rlut:4", "hlut:4", "mux:8", "muxlut:8" — the pure locking
   schemes; "efpga" (SheLL redaction) rides through the lock flow
   because it needs the full pipeline per benchmark. *)
let locked_of_spec ~seed nl spec =
  let fail () =
    errf "bad scheme spec %S (want xor:N, rlut:N, hlut:N, mux:N or muxlut:N)"
      spec
  in
  match String.split_on_char ':' spec with
  | [ name; n ] -> (
      match (name, int_of_string_opt n) with
      | _, None -> fail ()
      | "xor", Some bits -> Ok (L.Schemes.xor_keys ~seed ~bits nl)
      | "rlut", Some gates -> Ok (L.Schemes.random_lut ~seed ~gates nl)
      | "hlut", Some gates -> Ok (L.Schemes.heuristic_lut ~seed ~gates nl)
      | "mux", Some width -> Ok (L.Schemes.mux_routing ~seed ~width nl)
      | "muxlut", Some width -> Ok (L.Schemes.mux_lut ~seed ~width nl)
      | _ -> fail ())
  | _ -> fail ()

(* ---------------- lock ---------------- *)

let resolve_tfr (s : P.lock_spec) =
  if s.P.route = [] && s.P.lgc = [] then
    match default_tfr s.P.bench with
    | Some t -> Ok t
    | None -> errf "no default TfR for this design: pass --route/--lgc"
  else
    Ok (s.P.route, s.P.lgc, String.concat "+" (s.P.route @ s.P.lgc))

(* The style is checked before the design is built, so a spec with a
   bad style and an unknown benchmark reports the style. *)
let lock_design (s : P.lock_spec) design =
  let* style = style_of_string s.P.style in
  let* nl = design () in
  let* route, lgc, label = resolve_tfr s in
  let cfg =
    {
      (C.Flow.shell_config ~target:(C.Flow.Fixed { route; lgc; label }) ())
      with
      C.Flow.style;
      seed = s.P.seed;
    }
  in
  match C.Flow.run cfg nl with
  | r -> Ok r
  | exception Diag.Error d -> Error d

let lock_flow s = lock_design s (fun () -> netlist_of_bench s.P.bench)
let lock_netlist s nl = lock_design s (fun () -> Ok nl)

let lock_render (r : C.Flow.result) =
  Format.asprintf "%a@." C.Flow.pp_summary r
  ^ Printf.sprintf "verify: %s\n" (if C.Flow.verify r then "PASS" else "FAIL")

let lock_output s =
  let* r = lock_flow s in
  Ok (lock_render r)

(* ---------------- attack ---------------- *)

let detail_string detail =
  if detail = [] then ""
  else
    "detail:"
    ^ String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) detail)
    ^ "\n"

let attack_output (a : P.attack_spec) =
  let s = a.P.target in
  let* r = lock_flow s in
  let* _, _, label = resolve_tfr s in
  let lk = C.Flow.locked_sub r in
  let* attack =
    match A.Battery.find a.P.attack with
    | Some at -> Ok at
    | None ->
        errf "unknown attack %S (known: %s)" a.P.attack
          (String.concat ", " (A.Battery.names ()))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "attacking %s (%s) with %s, key %d bits, budget %d DIPs / %d \
        conflicts / %.0fs / %d vectors\n"
       s.P.bench label attack.A.Attack.name (L.Locked.key_bits lk) a.P.dips
       a.P.conflicts a.P.seconds a.P.vectors);
  let subject =
    A.Attack.subject
      ~label:(s.P.bench ^ "/" ^ label)
      ~cycle_blocks:r.C.Flow.emitted.F.Emit.cycle_blocks
      ~original:r.C.Flow.cut.C.Extraction.sub lk
  in
  let budget =
    A.Attack.budget ~max_dips:a.P.dips ~max_conflicts:a.P.conflicts
      ~time_limit:a.P.seconds ~vectors:a.P.vectors ()
  in
  (match attack.A.Attack.run budget subject with
  | A.Attack.Broken (key, st) ->
      Buffer.add_string buf
        (Printf.sprintf
           "BROKEN: key recovered in %d iterations, %d oracle queries, %d \
            conflicts, %.2fs\n"
           st.A.Attack.iterations st.A.Attack.oracle_queries
           st.A.Attack.conflicts st.A.Attack.elapsed);
      Buffer.add_string buf (detail_string st.A.Attack.detail);
      Buffer.add_string buf
        (Printf.sprintf "hamming distance to real bitstream: %d / %d\n"
           (F.Bitstream.hamming key lk.L.Locked.key)
           (Array.length key))
  | A.Attack.Resilient st ->
      Buffer.add_string buf
        (Printf.sprintf
           "RESILIENT within budget (%d iterations, %d oracle queries, %d \
            conflicts, %.2fs; %d/%d bits recovered)\n"
           st.A.Attack.iterations st.A.Attack.oracle_queries
           st.A.Attack.conflicts st.A.Attack.elapsed st.A.Attack.recovered_bits
           st.A.Attack.key_bits);
      Buffer.add_string buf (detail_string st.A.Attack.detail)
  | A.Attack.Inapplicable why ->
      Buffer.add_string buf (Printf.sprintf "N/A: %s\n" why));
  Ok (Buffer.contents buf)

(* ---------------- battery ---------------- *)

let battery_matrix (b : P.battery_spec) =
  let* attacks =
    match b.P.attacks with
    | [] -> Ok A.Battery.all
    | names ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | n :: tl -> (
              match A.Battery.find n with
              | Some a -> go (a :: acc) tl
              | None -> errf "unknown attack %S (try --list-attacks)" n)
        in
        go [] names
  in
  let* subjects =
    List.fold_left
      (fun acc bench ->
        let* acc = acc in
        let* nl = netlist_of_bench bench in
        let* subs =
          List.fold_left
            (fun acc spec ->
              let* acc = acc in
              let* lk = locked_of_spec ~seed:b.P.bt_seed nl spec in
              Ok
                (A.Attack.subject
                   ~label:(bench ^ "/" ^ spec)
                   ~original:nl lk
                :: acc))
            (Ok []) b.P.schemes
        in
        Ok (List.rev_append subs acc))
      (Ok []) b.P.benches
  in
  let subjects = List.rev subjects in
  if subjects = [] then errf "pass -b BENCH and --scheme SPEC"
  else begin
    let budget =
      A.Attack.budget ~max_dips:b.P.bt_dips ~max_conflicts:b.P.bt_conflicts
        ~time_limit:b.P.bt_seconds ~vectors:b.P.bt_vectors ()
    in
    Ok (A.Battery.run ~attacks ~budget subjects)
  end

let battery_render_json m = J.to_string ~indent:2 (A.Battery.matrix_json m) ^ "\n"

let battery_output b =
  let* m = battery_matrix b in
  Ok (battery_render_json m)

(* ---------------- fuzz ---------------- *)

(* Daemon fuzzing reports without shrinking or reproducer files: a
   shared long-lived process shouldn't write minimized Verilog into
   its own working directory on behalf of a remote client. *)
let fuzz_output (f : P.fuzz_spec) =
  let report =
    Fz.Runner.run ~oracles:Fz.Oracles.all ~shrink:false ~seed:f.P.fz_seed
      ~cases:f.P.cases ()
  in
  Ok (Format.asprintf "%a" Fz.Runner.pp_report report)

(* ---------------- lint ---------------- *)

(* The subject the pipeline's lint pass checks, so a locked flow can be
   re-linted under a different severity floor, baseline or job count. *)
let lint_subject_of_result (r : C.Flow.result) =
  C.Pipeline.lint_subject ~original:r.C.Flow.original
    ~analysis:r.C.Flow.analysis ~choice:r.C.Flow.choice ~pnr:r.C.Flow.pnr
    ~emitted:r.C.Flow.emitted ~resources:r.C.Flow.resources
    ~shrunk:r.C.Flow.config.C.Flow.shrink r.C.Flow.locked_full

let lint_subject_of_bench ~locked ~style ~seed bench =
  let* nl = netlist_of_bench bench in
  if locked then
    let cfg = { (C.Flow.shell_config ()) with C.Flow.style; seed } in
    match C.Flow.run cfg nl with
    | r -> Ok (lint_subject_of_result r)
    | exception Diag.Error d -> Error d
  else Ok (Lint.subject nl)

let lint_subjects (l : P.lint_spec) =
  let* style = style_of_string l.P.lint_style in
  let* subjects =
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        let* subject =
          lint_subject_of_bench ~locked:l.P.locked ~style ~seed:l.P.lint_seed b
        in
        Ok (subject :: acc))
      (Ok []) l.P.lint_benches
  in
  Ok (List.rev subjects)

let lint_output l =
  let* subjects = lint_subjects l in
  if subjects = [] then errf "nothing to lint: pass -b BENCH"
  else
    let reports = List.map (Lint.run ~rules:Rules.all) subjects in
    Ok (J.to_string ~indent:2 (Lint.reports_json reports) ^ "\n")

(* ---------------- dispatch ---------------- *)

let run (job : P.job) : (string, Diag.t) result =
  match job with
  | P.Lock s -> lock_output s
  | P.Attack a -> attack_output a
  | P.Battery b -> battery_output b
  | P.Fuzz f -> fuzz_output f
  | P.Lint l -> lint_output l
