(* The `shell` command-line tool: run the SheLL redaction flow, attack
   locked designs, and inspect the bundled benchmarks.

     shell list
     shell analyze   -b PicoSoC
     shell lock      -b PicoSoC [-s style] [--route PAT]... [--lgc PAT]...
                     [-o locked.v] [--bitstream key.bits] [--trace]
     shell lock-file -i design.v --route PAT ... (structural dialect)
     shell attack    -b PicoSoC [-a NAME] [--dips N] [--conflicts N]
                     [--seconds S] [--vectors N]
     shell battery   -b Xbar [--scheme SPEC]... [-a NAME]... [--json]
     shell fuzz      [-n N] [--self-test] [--no-shrink] [--dir DIR]
     shell lint      -b FIR [--locked] [-i design.v]... [--json]
     shell bench     [-t NAME]... [--record] [--check] [--report FILE]
     shell serve     [--cache-dir DIR]
     shell client    lock|attack|battery|fuzz|lint ... | status|metrics|...

   The five job kinds (lock, attack, battery, fuzz, lint) each declare
   their flags once, as one term that builds the kind's Protocol spec:
   `shell KIND` and `shell client KIND` parse the same term, and the
   direct command adds only its local flags (output files, --trace,
   --json, listings). Process-wide settings have one way in, the
   environment ([envs] at the bottom, shown by `shell --help`).

   All subcommands are deterministic for a given --seed. *)

module N = Shell_netlist
module F = Shell_fabric
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

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error m -> dief "%s" m

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-9s %-38s %6s  %s\n" "name" "description" "cells"
      "SheLL TfR";
    List.iter
      (fun (name, description) ->
        let nl = match SJ.netlist_of_bench name with Ok nl -> nl | Error d -> die d in
        let label =
          match SJ.default_tfr name with Some (_, _, label) -> label | None -> "-"
        in
        Printf.printf "%-9s %-38s %6d  %s\n" name description
          (N.Netlist.num_cells nl) label)
      (List.map
         (fun (e : Circ.Catalog.entry) ->
           (e.Circ.Catalog.name, e.Circ.Catalog.description))
         Circ.Catalog.all
      @ [
          ("SoC", "Fig. 3 platform (4 cores + Xbar)");
          ("Xbar", "8-channel AXI crossbar (Table I)");
        ])
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark circuits.")
    Term.(const run $ const ())

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run bench =
    match SJ.netlist_of_bench bench with
    | Error d -> die d
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

(* ---------------- job terms ---------------- *)

(* One term per Protocol spec. `shell KIND` and `shell client KIND`
   parse the same term, so both front ends accept the same flags and
   build the same spec, which Shell_serve.Jobs turns into the same
   bytes. *)

(* The flow flags of a lock spec; the design name completes it: a
   bundled benchmark for `lock`, the parsed module for `lock-file`. *)
let flow_term =
  Term.(
    const (fun style route lgc seed bench ->
        { SP.bench; style = SJ.style_id style; route; lgc; seed })
    $ style_arg $ route_arg $ lgc_arg $ seed_arg)

let lock_term =
  Term.(const (fun bench spec -> spec bench) $ bench_arg $ flow_term)

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

let attack_term =
  let attack_name =
    Arg.(
      value & opt string "sat"
      & info [ "a"; "attack" ] ~docv:"NAME"
          ~doc:"Registered attack to run (see `shell battery --list-attacks`).")
  in
  Term.(
    const (fun target attack dips conflicts seconds vectors ->
        { SP.target; attack; dips; conflicts; seconds; vectors })
    $ lock_term $ attack_name $ dips_arg $ conflicts_arg $ seconds_arg
    $ vectors_arg)

let battery_term =
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
  Term.(
    const
      (fun benches schemes attacks bt_seed bt_dips bt_conflicts bt_seconds
           bt_vectors ->
        {
          SP.benches;
          schemes;
          attacks;
          bt_seed;
          bt_dips;
          bt_conflicts;
          bt_seconds;
          bt_vectors;
        })
    $ benches $ schemes $ attacks $ seed_arg $ dips_arg $ conflicts_arg
    $ seconds_arg $ vectors_arg)

let fuzz_term =
  let cases =
    Arg.(
      value & opt int 200
      & info [ "n"; "cases" ] ~docv:"N"
          ~doc:"Number of random cases to generate.")
  in
  Term.(const (fun fz_seed cases -> { SP.fz_seed; cases }) $ seed_arg $ cases)

let lint_term =
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Lint a bundled benchmark (repeatable).")
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
  Term.(
    const (fun lint_benches locked style lint_seed ->
        { SP.lint_benches; locked; lint_style = SJ.style_id style; lint_seed })
    $ benches $ locked $ style_arg $ seed_arg)

(* ---------------- lock ---------------- *)

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

(* both lock commands write the versioned format [Bitstream.load] reads *)
let write_bitstream out (r : C.Flow.result) =
  match out with
  | None -> ()
  | Some path ->
      F.Bitstream.save r.C.Flow.emitted.F.Emit.bitstream path;
      Printf.printf "bitstream written to %s\n" path

let lock_run spec trace out bitstream_out =
  match traced trace (fun () -> SJ.lock_flow spec) with
  | Error d -> die d
  | Ok r ->
      print_string (SJ.lock_render r);
      write_locked out r;
      write_bitstream bitstream_out r

let trace_arg =
  let doc =
    "Print the flow's span tree to stderr: every pass with its wall time, \
     cache hit and counters."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~doc:"Write the locked design (netlist dialect).")

let bitstream_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bitstream" ] ~docv:"FILE"
        ~doc:
          "Write the correct bitstream in the versioned format (a \
           $(b,shell-bitstream 1) header, one line per segment, then the \
           bits in hex).")

let lock_cmd =
  Cmd.v
    (Cmd.info "lock" ~doc:"Redact a benchmark with the SheLL flow.")
    Term.(const lock_run $ lock_term $ trace_arg $ out_arg $ bitstream_arg)

(* ---------------- lock-file ---------------- *)

let lock_file_run input spec_of trace out bitstream_out =
  let nl =
    match N.Verilog.parse (read_file input) with
    | nl -> nl
    | exception N.Verilog.Parse_error m -> dief "parse error: %s" m
  in
  let spec = spec_of (N.Netlist.name nl) in
  if spec.SP.route = [] && spec.SP.lgc = [] then
    dief "pass --route/--lgc origin patterns";
  Printf.printf "parsed %s: %d cells\n" (N.Netlist.name nl)
    (N.Netlist.num_cells nl);
  match traced trace (fun () -> SJ.lock_netlist spec nl) with
  | Error d -> die d
  | Ok r ->
      print_string (SJ.lock_render r);
      write_locked out r;
      write_bitstream bitstream_out r

let lock_file_cmd =
  let input =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "input" ] ~doc:"Structural netlist file (library dialect).")
  in
  Cmd.v
    (Cmd.info "lock-file"
       ~doc:"Redact an external structural netlist with the SheLL flow.")
    Term.(
      const lock_file_run $ input $ flow_term $ trace_arg $ out_arg
      $ bitstream_arg)

(* ---------------- attack ---------------- *)

(* The bytes a daemon attack job returns: one verdict type, one budget
   record, any registered attack by name. *)
let attack_run spec =
  match SJ.attack_output spec with
  | Error d -> die d
  | Ok out -> print_string out

let attack_cmd =
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run one registered attack on a SheLL-redacted benchmark.")
    Term.(const attack_run $ attack_term)

(* ---------------- battery ---------------- *)

let battery_run spec json list_attacks =
  if list_attacks then
    List.iter
      (fun (a : A.Attack.t) ->
        Printf.printf "%-11s %-12s %s\n" a.A.Attack.name
          (String.concat ","
             (List.map A.Attack.capability_name a.A.Attack.capabilities))
          a.A.Attack.description)
      A.Battery.all
  else
    match SJ.battery_matrix spec with
    | Error d -> die d
    | Ok m ->
        if json then print_string (SJ.battery_render_json m)
        else Format.printf "%a@." A.Battery.pp_matrix m

let battery_cmd =
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
    Term.(const battery_run $ battery_term $ json $ list_attacks)

(* ---------------- stats ---------------- *)

let stats_run spec attack =
  Obs.set_enabled true;
  match SJ.lock_flow spec with
  | Error d -> die d
  | Ok r ->
      if attack then begin
        (* the exact attack and the portfolio as one battery row, so
           the tree shows the seed-0 search they share and the
           portfolio's decision *)
        let lk = C.Flow.locked_sub r in
        ignore
          (A.Battery.run
             ~attacks:[ A.Sat_attack.attack; A.Portfolio.attack ]
             ~budget:
               (A.Attack.budget ~max_dips:32 ~max_conflicts:50_000
                  ~time_limit:5.0 ())
             [
               A.Attack.subject
                 ~cycle_blocks:r.C.Flow.emitted.F.Emit.cycle_blocks
                 ~original:r.C.Flow.cut.C.Extraction.sub lk;
             ])
      end;
      Printf.printf "span tree for `lock -b %s`%s:\n" spec.SP.bench
        (if attack then " + attack" else "");
      Obs.pp_spans Format.std_formatter (Obs.spans ());
      print_newline ();
      print_string (Obs.to_prometheus (Obs.snapshot ()))

let stats_cmd =
  let attack =
    Arg.(
      value & flag
      & info [ "attack" ]
          ~doc:
            "Also run a short SAT attack and the solver portfolio as one \
             battery row, so their spans show up: the seed-0 search they \
             share (the battery's shared_searches) and the portfolio's \
             decision (racers_run). On a design that survives the attack \
             the portfolio's other three racers run too, about three \
             times the attack's time.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the lock flow with telemetry on and print the hierarchical \
          span tree plus all metrics (Prometheus text format).")
    Term.(const stats_run $ lock_term $ attack)

(* ---------------- fuzz ---------------- *)

let fuzz_run (spec : SP.fuzz_spec) oracle_names self_test no_shrink dir
    list_oracles =
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
    let seed = spec.SP.fz_seed and cases = spec.SP.cases in
    if self_test then begin
      let stats = Fz.Runner.self_test ~oracles ~seed ~cases () in
      Fz.Runner.pp_self_test Format.std_formatter stats;
      if not (Fz.Runner.self_test_ok stats) then begin
        prerr_endline "self-test failed: some oracle is blind to its fault class";
        exit 1
      end
    end
    else begin
      let report =
        Fz.Runner.run ~oracles ~shrink:(not no_shrink) ?out_dir:dir ~seed
          ~cases ()
      in
      Fz.Runner.pp_report Format.std_formatter report;
      if not (Fz.Runner.ok report) then exit 1
    end
  end

let fuzz_cmd =
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
      const fuzz_run $ fuzz_term $ oracle $ self_test $ no_shrink $ dir
      $ list_oracles)

(* ---------------- lint ---------------- *)

module Lint = Shell_lint.Lint
module Rules = Shell_lint.Rules

let lint_run (spec : SP.lint_spec) files json_out severity baseline
    update_baseline list_rules =
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
    if spec.SP.lint_benches = [] && files = [] then
      dief "nothing to lint: pass -b BENCH and/or -i FILE";
    let bench_subjects =
      match SJ.lint_subjects spec with Ok s -> s | Error d -> die d
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
        (Lint.run ~severity ~baseline:base_fps ~rules:Rules.all)
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
  let files =
    Arg.(
      value & opt_all string []
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:"Lint a structural netlist file (repeatable).")
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
      const lint_run $ lint_term $ files $ json $ severity $ baseline
      $ update_baseline $ list_rules)

(* ---------------- bench ---------------- *)

module BH = Shell_bench_history

let bench_run targets history record check report commit list_targets =
  if list_targets then
    List.iter
      (fun (t : BH.Targets.t) ->
        Printf.printf "%-10s %s\n" t.BH.Targets.name t.BH.Targets.description)
      BH.Targets.all
  else
    let opts =
      {
        BH.Runner.targets;
        history;
        record;
        check;
        report;
        commit;
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
  let commit =
    Arg.(
      value
      & opt (some string) None
      & info [ "commit" ] ~docv:"ID"
          ~doc:
            "Commit id stamped into records (default: SHELL_BENCH_COMMIT or \
             the git HEAD read from .git).")
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
      const bench_run $ targets $ history $ record $ check $ report $ commit
      $ list_targets)

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

let client_job_cmd name ~doc job =
  Cmd.v (Cmd.info name ~doc)
    Term.(const client_submit $ socket_arg $ priority_arg $ job)

let client_job_cmds =
  [
    client_job_cmd "lock" ~doc:"Submit a lock job to the daemon."
      Term.(const (fun s -> SP.Lock s) $ lock_term);
    client_job_cmd "attack" ~doc:"Submit an attack job to the daemon."
      Term.(const (fun a -> SP.Attack a) $ attack_term);
    client_job_cmd "battery"
      ~doc:
        "Submit a battery job to the daemon (response is the JSON matrix, \
         byte-identical to `shell battery --json`)."
      Term.(const (fun b -> SP.Battery b) $ battery_term);
    client_job_cmd "fuzz"
      ~doc:"Submit a fuzz campaign to the daemon (no shrinking)."
      Term.(const (fun f -> SP.Fuzz f) $ fuzz_term);
    client_job_cmd "lint" ~doc:"Submit a lint job to the daemon (JSON report)."
      Term.(const (fun l -> SP.Lint l) $ lint_term);
  ]

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
    (client_job_cmds
    @ [
        client_status_cmd;
        client_metrics_cmd;
        client_ping_cmd;
        client_shutdown_cmd;
      ])

(* ---------------- main ---------------- *)

(* The process settings: each has this one way in, no flag. *)
let envs =
  [
    Cmd.Env.info "SHELL_JOBS"
      ~doc:
        "Worker domains for every parallel fan-out (default: the core \
         count). Output is byte-identical for any value.";
    Cmd.Env.info "SHELL_METRICS"
      ~doc:
        "Turn telemetry on and write a metrics snapshot to this file at \
         exit: Prometheus text for a .prom suffix, JSON otherwise.";
    Cmd.Env.info "SHELL_METRICS_STABLE"
      ~doc:
        "1 restricts the SHELL_METRICS snapshot to the metrics that are \
         byte-identical at any SHELL_JOBS.";
    Cmd.Env.info "SHELL_PASS_CACHE"
      ~doc:"0 turns the pipeline's pass cache off (same output either way).";
  ]

let () =
  let doc = "SheLL: shrinking eFPGA fabrics for logic locking (DATE 2023)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "shell" ~version:"1.0.0" ~doc ~envs)
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
