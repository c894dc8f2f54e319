(* The `shell` command-line tool: run the SheLL redaction flow, attack
   locked designs, and inspect the bundled benchmarks.

     shell list
     shell analyze  -b PicoSoC
     shell lock     -b PicoSoC [-s style] [--route PAT]... [--lgc PAT]...
                    [-o locked.v] [--bitstream bits.hex]
     shell lock-file -i design.v --route PAT ... (structural dialect)
     shell attack   -b PicoSoC [--dips N] [--conflicts N] [--seconds S]

   All subcommands are deterministic for a given --seed. *)

module N = Shell_netlist
module F = Shell_fabric
module L = Shell_locking
module A = Shell_attacks
module C = Shell_core
module Circ = Shell_circuits
module Fz = Shell_fuzz
module Diag = Shell_util.Diag
module Obs = Shell_util.Obs
module SP = Shell_serve.Protocol
module SJ = Shell_serve.Jobs
module SS = Shell_serve.Server
module SC = Shell_serve.Client
open Cmdliner

(* The single fatal-exit path: every error — bad argument, parse
   failure, aborted pipeline pass — is rendered as a structured
   diagnostic ("pass: context: message [payload]") before exit 1. *)
let die (d : Diag.t) : 'a =
  prerr_endline (Diag.to_string d);
  exit 1

let dief fmt = Format.kasprintf (fun m -> die (Diag.make m)) fmt

(* ---------------- shared arguments ---------------- *)

let bench_arg =
  let doc = "Bundled benchmark: PicoSoC, AES, FIR, SPMV, DLA, SoC or Xbar." in
  Arg.(value & opt string "PicoSoC" & info [ "b"; "benchmark" ] ~doc)

let style_arg =
  let styles =
    [
      ("openfpga", F.Style.Openfpga);
      ("fabulous", F.Style.Fabulous_std);
      ("muxchain", F.Style.Fabulous_muxchain);
    ]
  in
  let doc = "Fabric style: openfpga, fabulous or muxchain (default)." in
  Arg.(
    value
    & opt (enum styles) F.Style.Fabulous_muxchain
    & info [ "s"; "style" ] ~doc)

let route_arg =
  let doc = "Origin substring selecting a ROUTE block (repeatable)." in
  Arg.(value & opt_all string [] & info [ "route" ] ~doc)

let lgc_arg =
  let doc = "Origin substring selecting an LGC block (repeatable)." in
  Arg.(value & opt_all string [] & info [ "lgc" ] ~doc)

let seed_arg =
  let doc = "Deterministic seed for decoys and placement." in
  Arg.(value & opt int 0x51e11 & info [ "seed" ] ~doc)

let metrics_arg =
  let doc =
    "Enable the metrics registry and write a snapshot to $(docv) on \
     completion. A .prom suffix selects Prometheus text format, anything \
     else JSON (same as setting SHELL_METRICS=$(docv); \
     SHELL_METRICS_STABLE=1 restricts the snapshot to deterministic \
     metrics)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Run [f] with the registry on, writing the snapshot even when [f]
   dies through [die] (which exits rather than unwinds) — hence
   at_exit instead of Fun.protect. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      Obs.set_enabled true;
      at_exit (fun () -> try Obs.write_file path with Sys_error _ -> ());
      f ()

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error m -> dief "%s" m

(* Benchmark lookup, TfR defaults and job execution live in
   Shell_serve.Jobs, shared with the daemon so socket and CLI
   invocations return byte-identical output. *)
let netlist_of_bench name =
  match SJ.netlist_of_bench name with
  | Ok nl -> Ok nl
  | Error d -> Error (`Msg (Diag.to_string d))

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-9s %-38s %6s  %s\n" "name" "description" "cells"
      "SheLL TfR";
    List.iter
      (fun (e : Circ.Catalog.entry) ->
        let nl = e.Circ.Catalog.netlist () in
        Printf.printf "%-9s %-38s %6d  %s\n" e.Circ.Catalog.name
          e.Circ.Catalog.description (N.Netlist.num_cells nl)
          e.Circ.Catalog.tfr_shell.Circ.Catalog.label)
      Circ.Catalog.all;
    Printf.printf "%-9s %-38s %6d  %s\n" "SoC" "Fig. 3 platform (4 cores + Xbar)"
      (N.Netlist.num_cells (Circ.Soc.netlist ()))
      "Xbar + wrappers";
    Printf.printf "%-9s %-38s %6d  %s\n" "Xbar" "8-channel AXI crossbar (Table I)"
      (N.Netlist.num_cells (Circ.Axi_xbar.netlist ()))
      "whole Xbar"
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark circuits.")
    Term.(const run $ const ())

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run bench =
    match netlist_of_bench bench with
    | Error (`Msg m) -> dief "%s" m
    | Ok nl ->
        let t = C.Connectivity.analyze nl in
        Printf.printf "%d cells, %d blocks\n\n" (N.Netlist.num_cells nl)
          (Array.length t.C.Connectivity.blocks);
        Printf.printf "%-46s %5s %6s %7s  %s\n" "block" "cells" "route"
          "score" "attributes";
        let scored =
          Array.to_list t.C.Connectivity.blocks
          |> List.filter (fun b -> b.C.Connectivity.name <> "")
          |> List.map (fun b ->
                 (C.Score.eval C.Score.shell_choice b.C.Connectivity.attrs, b))
          |> List.sort (fun (a, _) (b, _) -> compare b a)
        in
        List.iteri
          (fun i (s, (b : C.Connectivity.block)) ->
            if i < 25 then
              Printf.printf "%-46s %5d %6.2f %7.3f  %s\n" b.C.Connectivity.name
                (List.length b.C.Connectivity.cells)
                b.C.Connectivity.route_fraction s
                (Format.asprintf "%a" C.Score.pp_attrs b.C.Connectivity.attrs))
          scored
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the connectivity analysis and print scored blocks.")
    Term.(const run $ bench_arg)

(* ---------------- lock ---------------- *)

let lock_spec bench style route lgc seed =
  { SP.bench; style = SJ.style_id style; route; lgc; seed }

(* --trace: telemetry on for the flow, then its [pipeline] span subtree
   on stderr (each pass with its wall time, cache_hit and counters),
   failed flows included; stdout is untouched. *)
let traced trace flow =
  if trace then Obs.set_enabled true;
  let r = flow () in
  if trace then
    Format.eprintf "%a@?" Obs.pp_spans
      (List.filter (fun (s : Obs.span) -> s.Obs.name = "pipeline") (Obs.spans ()));
  r

let write_locked out (r : C.Flow.result) =
  match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (N.Verilog.to_string r.C.Flow.locked_full);
      close_out oc;
      Printf.printf "locked design written to %s\n" path

let lock_run bench style route lgc seed trace metrics out bitstream_out =
  with_metrics metrics @@ fun () ->
  match
    traced trace (fun () -> SJ.lock_flow (lock_spec bench style route lgc seed))
  with
  | Error d -> die d
  | Ok r ->
      print_string (SJ.lock_render r);
      write_locked out r;
      (match bitstream_out with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc
            (F.Bitstream.to_hex r.C.Flow.emitted.F.Emit.bitstream);
          output_string oc "\n";
          close_out oc;
          Printf.printf "bitstream written to %s\n" path)

let trace_arg =
  let doc =
    "Print the flow's span tree to stderr: every pass with its wall time, \
     cache hit and counters."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let lock_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the locked design (netlist dialect).")
  in
  let bs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bitstream" ] ~doc:"Write the correct bitstream (hex).")
  in
  Cmd.v
    (Cmd.info "lock" ~doc:"Redact a benchmark with the SheLL flow.")
    Term.(
      const lock_run $ bench_arg $ style_arg $ route_arg $ lgc_arg $ seed_arg
      $ trace_arg $ metrics_arg $ out_arg $ bs_arg)

(* ---------------- lock-file ---------------- *)

let lock_file_run input style route lgc seed trace metrics out bitstream_out =
  with_metrics metrics @@ fun () ->
  let nl =
    match N.Verilog.parse (read_file input) with
    | nl -> nl
    | exception N.Verilog.Parse_error m -> dief "parse error: %s" m
  in
  if route = [] && lgc = [] then dief "pass --route/--lgc origin patterns";
  Printf.printf "parsed %s: %d cells\n" (N.Netlist.name nl)
    (N.Netlist.num_cells nl);
  let spec = lock_spec (N.Netlist.name nl) style route lgc seed in
  match traced trace (fun () -> SJ.lock_netlist spec nl) with
  | Error d -> die d
  | Ok r -> (
      print_string (SJ.lock_render r);
      write_locked out r;
      match bitstream_out with
      | None -> ()
      | Some path ->
          F.Bitstream.save r.C.Flow.emitted.F.Emit.bitstream path;
          Printf.printf "bitstream written to %s\n" path)

let lock_file_cmd =
  let input =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "input" ] ~doc:"Structural netlist file (library dialect).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the locked design.")
  in
  let bs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bitstream" ] ~doc:"Write the bitstream (versioned format).")
  in
  Cmd.v
    (Cmd.info "lock-file"
       ~doc:"Redact an external structural netlist with the SheLL flow.")
    Term.(
      const lock_file_run $ input $ style_arg $ route_arg $ lgc_arg $ seed_arg
      $ trace_arg $ metrics_arg $ out_arg $ bs_arg)

(* ---------------- attack ---------------- *)

(* every attack command funnels through the unified interface now: one
   verdict type, one budget record, any registered attack by name *)
let attack_run bench style route lgc seed attack_name dips conflicts seconds
    vectors metrics =
  with_metrics metrics @@ fun () ->
  let spec =
    {
      SP.target = lock_spec bench style route lgc seed;
      attack = attack_name;
      dips;
      conflicts;
      seconds;
      vectors;
    }
  in
  match SJ.attack_output spec with
  | Error d -> die d
  | Ok out -> print_string out

let dips_arg = Arg.(value & opt int 64 & info [ "dips" ] ~doc:"Max DIPs.")

let conflicts_arg =
  Arg.(value & opt int 200_000 & info [ "conflicts" ] ~doc:"Max conflicts.")

let seconds_arg =
  Arg.(value & opt float 30.0 & info [ "seconds" ] ~doc:"Time limit.")

let vectors_arg =
  Arg.(
    value & opt int 256
    & info [ "vectors" ]
        ~doc:"Simulation sample size for the sim-family attacks.")

let attack_cmd =
  let attack_name_arg =
    Arg.(
      value & opt string "sat"
      & info [ "a"; "attack" ] ~docv:"NAME"
          ~doc:"Registered attack to run (see `shell battery --list-attacks`).")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run one registered attack on a SheLL-redacted benchmark.")
    Term.(
      const attack_run $ bench_arg $ style_arg $ route_arg $ lgc_arg $ seed_arg
      $ attack_name_arg $ dips_arg $ conflicts_arg $ seconds_arg $ vectors_arg
      $ metrics_arg)

(* ---------------- battery ---------------- *)

let battery_run benches schemes attack_names jobs seed dips conflicts seconds
    vectors json metrics list_attacks =
  with_metrics metrics @@ fun () ->
  if list_attacks then
    List.iter
      (fun (a : A.Attack.t) ->
        Printf.printf "%-11s %-12s %s\n" a.A.Attack.name
          (String.concat ","
             (List.map A.Attack.capability_name a.A.Attack.capabilities))
          a.A.Attack.description)
      A.Battery.all
  else begin
    let spec =
      {
        SP.benches;
        schemes;
        attacks = attack_names;
        bt_seed = seed;
        bt_dips = dips;
        bt_conflicts = conflicts;
        bt_seconds = seconds;
        bt_vectors = vectors;
      }
    in
    match SJ.battery_matrix ?jobs spec with
    | Error d -> die d
    | Ok m ->
        if json then print_string (SJ.battery_render_json m)
        else Format.printf "%a@." A.Battery.pp_matrix m
  end

let battery_cmd =
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Benchmark to lock and attack (repeatable).")
  in
  let schemes =
    Arg.(
      value
      & opt_all string [ "xor:8"; "mux:8" ]
      & info [ "scheme" ] ~docv:"SPEC"
          ~doc:
            "Locking scheme spec: xor:N, rlut:N, hlut:N, mux:N or muxlut:N \
             (repeatable; default xor:8 and mux:8).")
  in
  let attacks =
    Arg.(
      value & opt_all string []
      & info [ "a"; "attack" ] ~docv:"NAME"
          ~doc:"Restrict to one registered attack (repeatable; default all).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the (subject x attack) fan-out (default: \
             SHELL_JOBS or the core count). The matrix is byte-identical for \
             any value.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable matrix on stdout (stable: no wall-clock \
             fields).")
  in
  let list_attacks =
    Arg.(
      value & flag
      & info [ "list-attacks" ] ~doc:"List the attack registry and exit.")
  in
  Cmd.v
    (Cmd.info "battery"
       ~doc:
         "Run the whole attack battery over locked variants of the bundled \
          benchmarks and print the per-scheme x per-attack resilience \
          matrix.")
    Term.(
      const battery_run $ benches $ schemes $ attacks $ jobs $ seed_arg
      $ dips_arg $ conflicts_arg $ seconds_arg $ vectors_arg $ json
      $ metrics_arg $ list_attacks)

(* ---------------- stats ---------------- *)

let stats_run bench style route lgc seed attack =
  Obs.set_enabled true;
  match SJ.lock_flow (lock_spec bench style route lgc seed) with
  | Error d -> die d
  | Ok r ->
      if attack then begin
        let lk = C.Flow.locked_sub r in
        ignore
          (A.Sat_attack.attack.A.Attack.run
             (A.Attack.budget ~max_dips:32 ~max_conflicts:50_000
                ~time_limit:5.0 ())
             (A.Attack.subject
                ~cycle_blocks:r.C.Flow.emitted.F.Emit.cycle_blocks
                ~original:r.C.Flow.cut.C.Extraction.sub lk))
      end;
      Printf.printf "span tree for `lock -b %s`%s:\n" bench
        (if attack then " + attack" else "");
      Obs.pp_spans Format.std_formatter (Obs.spans ());
      print_newline ();
      print_string (Obs.to_prometheus (Obs.snapshot ()))

let stats_cmd =
  let attack =
    Arg.(
      value & flag
      & info [ "attack" ]
          ~doc:"Also run a short SAT attack so its spans show up.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the lock flow with telemetry on and print the hierarchical \
          span tree plus all metrics (Prometheus text format).")
    Term.(
      const stats_run $ bench_arg $ style_arg $ route_arg $ lgc_arg $ seed_arg
      $ attack)

(* ---------------- fuzz ---------------- *)

let fuzz_run metrics seed cases jobs oracle_names self_test no_shrink dir
    list_oracles =
  with_metrics metrics @@ fun () ->
  if list_oracles then
    List.iter
      (fun (o : Fz.Oracles.t) ->
        Printf.printf "%-12s %s\n" o.Fz.Oracles.name o.Fz.Oracles.description)
      Fz.Oracles.all
  else begin
    let oracles =
      match oracle_names with
      | [] -> Fz.Oracles.all
      | names ->
          List.map
            (fun nm ->
              match Fz.Oracles.find nm with
              | Some o -> o
              | None -> dief "unknown oracle %S (try --list-oracles)" nm)
            names
    in
    if self_test then begin
      let stats = Fz.Runner.self_test ?jobs ~oracles ~seed ~cases () in
      Fz.Runner.pp_self_test Format.std_formatter stats;
      if not (Fz.Runner.self_test_ok stats) then begin
        prerr_endline "self-test failed: some oracle is blind to its fault class";
        exit 1
      end
    end
    else begin
      let report =
        Fz.Runner.run ?jobs ~oracles ~shrink:(not no_shrink) ?out_dir:dir ~seed
          ~cases ()
      in
      Fz.Runner.pp_report Format.std_formatter report;
      if not (Fz.Runner.ok report) then exit 1
    end
  end

let fuzz_cmd =
  let cases =
    Arg.(
      value & opt int 200
      & info [ "n"; "cases" ] ~docv:"N"
          ~doc:"Number of random cases to generate.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default: SHELL_JOBS or the core count). The \
             report is byte-identical for any value.")
  in
  let oracle =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"Run only this oracle (repeatable; default: all).")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Mutation-injection mode: inject single faults and verify every \
             oracle catches its fault class at least once.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Write a minimized Verilog reproducer per failure into $(docv).")
  in
  let list_oracles =
    Arg.(
      value & flag
      & info [ "list-oracles" ] ~doc:"List the oracle battery and exit.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random netlists through the oracle battery \
          (sim vs SAT, passes vs Equiv, lock/unlock, emit round-trips). \
          Deterministic in --seed; exits 1 on any failure.")
    Term.(
      const fuzz_run $ metrics_arg $ seed_arg $ cases $ jobs $ oracle
      $ self_test $ no_shrink $ dir $ list_oracles)

(* ---------------- lint ---------------- *)

module Lint = Shell_lint.Lint
module Rules = Shell_lint.Rules

let lint_run metrics benches files locked style seed jobs json_out severity
    baseline update_baseline list_rules =
  with_metrics metrics @@ fun () ->
  if list_rules then
    List.iter
      (fun (r : Lint.rule) ->
        Printf.printf "%-22s %-10s %-5s %s\n" r.Lint.name
          (Lint.pack_name r.Lint.pack)
          (Lint.severity_name r.Lint.severity)
          r.Lint.help)
      Rules.all
  else begin
    let severity =
      match Lint.severity_of_string severity with
      | Some s -> s
      | None -> dief "unknown severity %S (error, warn or info)" severity
    in
    let base_fps =
      match baseline with
      | Some path when not update_baseline -> (
          match Lint.load_baseline path with
          | Ok fps -> fps
          | Error m -> dief "%s" m)
      | _ -> []
    in
    if benches = [] && files = [] then
      dief "nothing to lint: pass -b BENCH and/or -i FILE";
    let bench_subjects =
      List.map
        (fun b ->
          match SJ.lint_subject_of_bench ~locked ~style ~seed b with
          | Ok subject -> subject
          | Error d -> die d)
        benches
    in
    let file_subjects =
      List.map
        (fun path ->
          match N.Verilog.parse (read_file path) with
          | nl -> Lint.subject nl
          | exception N.Verilog.Parse_error m ->
              dief "%s: parse error: %s" path m)
        files
    in
    let reports =
      List.map
        (Lint.run ?jobs ~severity ~baseline:base_fps ~rules:Rules.all)
        (bench_subjects @ file_subjects)
    in
    (match (baseline, update_baseline) with
    | Some path, true ->
        let oc = open_out path in
        output_string oc
          "# shell lint baseline: one fingerprint per accepted finding\n";
        let n = ref 0 in
        List.iter
          (fun (r : Lint.report) ->
            List.iter
              (fun f ->
                incr n;
                output_string oc
                  (Lint.baseline_line ~subject_name:r.Lint.subject_name f);
                output_char oc '\n')
              r.Lint.findings)
          reports;
        close_out oc;
        Printf.printf "baseline written to %s (%d finding%s)\n" path !n
          (if !n = 1 then "" else "s")
    | None, true -> dief "--update-baseline needs --baseline FILE"
    | _ -> ());
    let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
    if json_out then
      print_endline
        (Shell_util.Jsonw.to_string ~indent:2 (Lint.reports_json reports))
    else begin
      List.iter (fun r -> Format.printf "%a@.@?" Lint.pp_report r) reports;
      Printf.printf
        "lint: %d subject%s, %d error%s, %d warning%s, %d note%s, %d \
         suppressed\n"
        (List.length reports)
        (if List.length reports = 1 then "" else "s")
        (total (fun r -> r.Lint.errors))
        (if total (fun r -> r.Lint.errors) = 1 then "" else "s")
        (total (fun r -> r.Lint.warns))
        (if total (fun r -> r.Lint.warns) = 1 then "" else "s")
        (total (fun r -> r.Lint.infos))
        (if total (fun r -> r.Lint.infos) = 1 then "" else "s")
        (total (fun r -> r.Lint.suppressed))
    end;
    if total (fun r -> r.Lint.errors) > 0 && not update_baseline then exit 1
  end

let lint_cmd =
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Lint a bundled benchmark (repeatable).")
  in
  let files =
    Arg.(
      value & opt_all string []
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:"Lint a structural netlist file (repeatable).")
  in
  let locked =
    Arg.(
      value & flag
      & info [ "locked" ]
          ~doc:
            "Run the SheLL flow on each benchmark first and lint the locked \
             result with its fabric, bitstream and selection artifacts \
             (activates the security and fabric rule packs).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the rule fan-out (default: SHELL_JOBS or the \
             core count). Output is byte-identical for any value.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable report on stdout.")
  in
  let severity =
    Arg.(
      value & opt string "info"
      & info [ "severity" ] ~docv:"LEVEL"
          ~doc:"Reporting floor: error, warn or info (default).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Suppress findings whose fingerprint appears in $(docv) (one per \
             line, # comments allowed).")
  in
  let update_baseline =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:
            "Rewrite the --baseline file to accept every finding of this \
             run, then exit 0.")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"List the rule registry and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis over netlists and locked designs: structural \
          well-formedness, the paper's locking invariants and \
          fabric/bitstream accounting. Exits 1 on unsuppressed errors.")
    Term.(
      const lint_run $ metrics_arg $ benches $ files $ locked $ style_arg
      $ seed_arg $ jobs $ json $ severity $ baseline $ update_baseline
      $ list_rules)

(* ---------------- bench ---------------- *)

module BH = Shell_bench_history

let bench_run targets jobs history record check report allowlist
    time_tolerance commit against list_targets =
  if list_targets then
    List.iter
      (fun (t : BH.Targets.t) ->
        Printf.printf "%-10s %s\n" t.BH.Targets.name t.BH.Targets.description)
      BH.Targets.all
  else
    let opts =
      {
        BH.Runner.targets;
        jobs;
        history;
        record;
        check;
        report;
        allowlist;
        time_tolerance;
        commit;
        against;
      }
    in
    match BH.Runner.execute opts with
    | Ok () -> ()
    | Error ds ->
        List.iter (fun d -> prerr_endline (Diag.to_string d)) ds;
        exit 1

let bench_cmd =
  let targets =
    Arg.(
      value & opt_all string []
      & info [ "t"; "target" ] ~docv:"NAME"
          ~doc:
            "Bench target to run (repeatable; default all). See \
             --list-targets.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default: SHELL_JOBS or the core count). The \
             stable part of every record is byte-identical for any value.")
  in
  let history =
    Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"FILE"
          ~doc:"JSONL history file (default BENCH_HISTORY.jsonl).")
  in
  let record =
    Arg.(
      value & flag
      & info [ "record" ]
          ~doc:"Append one record per target to the history.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Diff each fresh record's stable counters and span structure \
             against the last committed record of the same target; exit 1 \
             on unexplained drift.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a self-contained HTML trend page over the history to \
             $(docv).")
  in
  let allowlist =
    Arg.(
      value
      & opt (some string) None
      & info [ "allowlist" ] ~docv:"FILE"
          ~doc:
            "Intentional-change patterns, one per line: $(i,key) or \
             $(i,target:key), trailing * wildcard, # comments.")
  in
  let time_tolerance =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-tolerance" ] ~docv:"FRAC"
          ~doc:
            "Also flag per-bench wall times drifting beyond the \
             $(docv)-relative band (e.g. 0.5 = +-50%). Off by default: \
             times are machine noise; counters are the gate.")
  in
  let commit =
    Arg.(
      value
      & opt (some string) None
      & info [ "commit" ] ~docv:"ID"
          ~doc:
            "Commit id stamped into records (default: SHELL_BENCH_COMMIT or \
             the git HEAD read from .git).")
  in
  let against =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"COMMIT"
          ~doc:
            "--check baseline selector: a commit id (prefixes ok) or \
             $(b,merge-base) to use SHELL_BENCH_MERGE_BASE / the origin \
             default-branch tip read from .git. Falls back to the last \
             record per target, with a warning, when no record matches.")
  in
  let list_targets =
    Arg.(
      value & flag
      & info [ "list-targets" ] ~doc:"List the target registry and exit.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the recordable bench targets and maintain the JSONL perf \
          history: --record appends, --check gates on stable-counter drift, \
          --report renders the HTML trend page.")
    Term.(
      const bench_run $ targets $ jobs $ history $ record $ check
      $ report $ allowlist $ time_tolerance $ commit $ against $ list_targets)

(* ---------------- serve ---------------- *)

let socket_arg =
  let doc =
    "Daemon socket: a Unix socket path (anything containing '/', the \
     default) or host:port for TCP."
  in
  let env = Cmd.Env.info "SHELL_SOCKET" in
  Arg.(
    value
    & opt string "/tmp/shell-serve.sock"
    & info [ "socket" ] ~env ~docv:"ADDR" ~doc)

let address_of_arg s =
  match SS.address_of_string s with Ok a -> a | Error m -> dief "%s" m

let serve_run socket queue_cap max_frame max_seconds cache_dir cache_max_bytes
    gc_only verbose =
  if gc_only then begin
    match cache_dir with
    | None -> dief "serve --gc needs --cache-dir"
    | Some dir ->
        let max_bytes = Option.value ~default:0 cache_max_bytes in
        let rep = Shell_serve.Store.gc (Shell_serve.Store.create ~root:dir) ~max_bytes in
        Format.printf "%a@." Shell_serve.Store.pp_gc_report rep
  end
  else
    let cfg =
      {
        SS.address = address_of_arg socket;
        queue_cap;
        max_frame;
        max_seconds;
        store_dir = cache_dir;
        cache_max_bytes;
        log = verbose;
      }
    in
    SS.serve cfg

let serve_cmd =
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission queue depth; submissions beyond it are rejected with \
             a typed queue_full diagnostic.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Shell_util.Jsonw.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Reject request frames larger than $(docv).")
  in
  let max_seconds =
    Arg.(
      value & opt float 600.0
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:"Clamp per-job time budgets to $(docv) seconds.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Spill the pass cache to a content-addressed store under \
             $(docv) so warm hits survive daemon restarts. Evict by \
             deleting the directory.")
  in
  let cache_max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Size cap on the spill store: least-recently-read blobs are \
             pruned back under $(docv) at daemon startup (and by \
             $(b,--gc)). Off by default.")
  in
  let gc_only =
    Arg.(
      value & flag
      & info [ "gc" ]
          ~doc:
            "Don't start the daemon: prune the --cache-dir store to \
             --cache-max-bytes (default 0 = empty it), print the typed \
             report and exit.")
  in
  let verbose =
    Arg.(
      value & flag & info [ "verbose" ] ~doc:"Log admissions/jobs to stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the lock-as-a-service daemon: lock/attack/battery/fuzz/lint \
          jobs over a Unix/TCP socket as length-prefixed JSON, with an \
          admission-control queue, per-job priorities and budget caps, \
          Prometheus metrics, and an on-disk pass-cache spill store (size \
          capped via --cache-max-bytes; prune offline with --gc). Stop it \
          with `shell client shutdown`.")
    Term.(
      const serve_run $ socket_arg $ queue_cap $ max_frame $ max_seconds
      $ cache_dir $ cache_max_bytes $ gc_only $ verbose)

(* ---------------- client ---------------- *)

let priority_arg =
  Arg.(
    value & opt int 0
    & info [ "priority" ] ~docv:"N"
        ~doc:"Queue priority: higher-priority jobs run first.")

let with_daemon socket f =
  let addr = address_of_arg socket in
  match SC.with_connection addr f with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
      dief "cannot reach daemon at %s: %s (is `shell serve` running?)" socket
        (Unix.error_message e)

(* The response contract mirrors the direct CLI: Result bytes go to
   stdout verbatim (byte-identical to the equivalent subcommand),
   Rejected/Failed render on stderr with exit 1. *)
let client_submit socket priority job =
  match
    with_daemon socket (fun c -> SC.submit c ~priority job)
  with
  | Ok (SP.Result { output; _ }) -> print_string output
  | Ok (SP.Rejected { reason; _ }) -> dief "rejected: %s" reason
  | Ok (SP.Failed { message; _ }) -> dief "%s" message
  | Ok _ -> dief "unexpected response type from daemon"
  | Error m -> dief "%s" m

let client_lock_cmd =
  let run socket priority bench style route lgc seed =
    client_submit socket priority
      (SP.Lock (lock_spec bench style route lgc seed))
  in
  Cmd.v
    (Cmd.info "lock" ~doc:"Submit a lock job to the daemon.")
    Term.(
      const run $ socket_arg $ priority_arg $ bench_arg $ style_arg
      $ route_arg $ lgc_arg $ seed_arg)

let client_attack_cmd =
  let run socket priority bench style route lgc seed attack dips conflicts
      seconds vectors =
    client_submit socket priority
      (SP.Attack
         {
           SP.target = lock_spec bench style route lgc seed;
           attack;
           dips;
           conflicts;
           seconds;
           vectors;
         })
  in
  let attack_name_arg =
    Arg.(
      value & opt string "sat"
      & info [ "a"; "attack" ] ~docv:"NAME" ~doc:"Registered attack to run.")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Submit an attack job to the daemon.")
    Term.(
      const run $ socket_arg $ priority_arg $ bench_arg $ style_arg
      $ route_arg $ lgc_arg $ seed_arg $ attack_name_arg $ dips_arg
      $ conflicts_arg $ seconds_arg $ vectors_arg)

let client_battery_cmd =
  let run socket priority benches schemes attacks seed dips conflicts seconds
      vectors =
    client_submit socket priority
      (SP.Battery
         {
           SP.benches;
           schemes;
           attacks;
           bt_seed = seed;
           bt_dips = dips;
           bt_conflicts = conflicts;
           bt_seconds = seconds;
           bt_vectors = vectors;
         })
  in
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Benchmark to lock and attack (repeatable).")
  in
  let schemes =
    Arg.(
      value
      & opt_all string [ "xor:8"; "mux:8" ]
      & info [ "scheme" ] ~docv:"SPEC"
          ~doc:"Locking scheme spec (repeatable; default xor:8 and mux:8).")
  in
  let attacks =
    Arg.(
      value & opt_all string []
      & info [ "a"; "attack" ] ~docv:"NAME"
          ~doc:"Restrict to one registered attack (repeatable; default all).")
  in
  Cmd.v
    (Cmd.info "battery"
       ~doc:
         "Submit a battery job to the daemon (response is the JSON matrix, \
          byte-identical to `shell battery --json`).")
    Term.(
      const run $ socket_arg $ priority_arg $ benches $ schemes $ attacks
      $ seed_arg $ dips_arg $ conflicts_arg $ seconds_arg $ vectors_arg)

let client_fuzz_cmd =
  let run socket priority seed cases =
    client_submit socket priority (SP.Fuzz { SP.fz_seed = seed; cases })
  in
  let cases =
    Arg.(
      value & opt int 200
      & info [ "n"; "cases" ] ~docv:"N" ~doc:"Number of random cases.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Submit a fuzz campaign to the daemon (no shrinking).")
    Term.(const run $ socket_arg $ priority_arg $ seed_arg $ cases)

let client_lint_cmd =
  let run socket priority benches locked style seed =
    client_submit socket priority
      (SP.Lint
         {
           SP.lint_benches = benches;
           locked;
           lint_style = SJ.style_id style;
           lint_seed = seed;
         })
  in
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Lint a bundled benchmark (repeatable).")
  in
  let locked =
    Arg.(
      value & flag
      & info [ "locked" ] ~doc:"Run the SheLL flow first; lint the result.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Submit a lint job to the daemon (JSON report).")
    Term.(
      const run $ socket_arg $ priority_arg $ benches $ locked $ style_arg
      $ seed_arg)

let client_status_cmd =
  let run socket =
    match with_daemon socket SC.status with
    | Ok info ->
        print_endline
          (Shell_util.Jsonw.to_string ~indent:2 (SP.status_info_json info))
    | Error m -> dief "%s" m
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Print the daemon's queue depth, job counts, cache hit rates and \
          per-job-kind span summaries as JSON.")
    Term.(const run $ socket_arg)

let client_metrics_cmd =
  let run socket =
    match with_daemon socket SC.metrics with
    | Ok text -> print_string text
    | Error m -> dief "%s" m
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Print the daemon's live metrics (Prometheus text format).")
    Term.(const run $ socket_arg)

let client_ping_cmd =
  let run socket =
    match with_daemon socket SC.ping with
    | Ok v -> Printf.printf "pong (protocol v%d)\n" v
    | Error m -> dief "%s" m
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Check the daemon is alive.")
    Term.(const run $ socket_arg)

let client_shutdown_cmd =
  let run socket =
    match with_daemon socket SC.shutdown with
    | Ok out -> print_string out
    | Error m -> dief "%s" m
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to exit.")
    Term.(const run $ socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running `shell serve` daemon: submit jobs (stdout is \
          byte-identical to the direct subcommand) or query \
          status/metrics.")
    [
      client_lock_cmd;
      client_attack_cmd;
      client_battery_cmd;
      client_fuzz_cmd;
      client_lint_cmd;
      client_status_cmd;
      client_metrics_cmd;
      client_ping_cmd;
      client_shutdown_cmd;
    ]

(* ---------------- main ---------------- *)

let () =
  let doc = "SheLL: shrinking eFPGA fabrics for logic locking (DATE 2023)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "shell" ~version:"1.0.0" ~doc)
          [
            list_cmd;
            analyze_cmd;
            lock_cmd;
            lock_file_cmd;
            attack_cmd;
            battery_cmd;
            stats_cmd;
            fuzz_cmd;
            lint_cmd;
            bench_cmd;
            serve_cmd;
            client_cmd;
          ]))
