(* perfbench: seeded, closed-loop, host-normalised benchmark of the lock
   flow, the attack battery and the serve daemon.

   main.exe --workload lock|battery|serve --seed N --seconds S --trace 0|1
            [--shell PATH-TO-shell_cli.exe]

   The last stdout line is the JSON result; progress goes to stderr. *)

open Perfbench

external pin_here : unit -> int = "perfbench_pin_here"

let usage =
  "main.exe --workload lock|battery|serve --seed N --seconds S --trace 0|1 \
   [--shell EXE]"

let () =
  let workload = ref "" and seed = ref Streams.default_seed in
  let seconds = ref 10. and trace = ref 0 and shell = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "lock, battery or serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "run length at reference speed");
      ("--trace", Arg.Set_int trace, "1: per-layer metrics, 0: end-to-end");
      ("--shell", Arg.Set_string shell, "shell_cli.exe for the serve daemon");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* the program's own switches would change what is measured *)
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "perfbench: unset %s first\n" v;
        exit 2
      end)
    [ "SHELL_PASS_CACHE"; "SHELL_TRACE"; "SHELL_METRICS"; "SHELL_OBS" ];
  (* A workload that runs on one domain runs on one CPU, with its kernel
     helper (and the serve daemon) pinned there too, so the kernel times
     the CPU the work runs on. Battery spreads over nproc domains. *)
  if !workload = "lock" || !workload = "serve" then
    if pin_here () < 0 then prerr_endline "perfbench: cannot pin to one CPU";
  (* fork the kernel helper before anything can spawn a domain *)
  let kernel = Kernel.start () in
  let code =
    match
      let timer = Timer.create kernel in
      if !trace <> 0 && !trace <> 1 then failwith "--trace takes 0 or 1";
      let trace = !trace = 1 and seed = !seed and seconds = !seconds in
      Shell_util.Obs.set_enabled false;
      let traced, (correct, samples, metrics) =
        match !workload with
        | "lock" -> (Lock_wl.traced, Lock_wl.run ~timer ~trace ~seed ~seconds)
        | "battery" ->
            (Battery_wl.traced, Battery_wl.run ~timer ~trace ~seed ~seconds)
        | "serve" ->
            if !shell = "" then failwith "serve needs --shell";
            ( Serve_wl.traced,
              Serve_wl.run ~timer ~trace ~seed ~seconds ~exe:!shell )
        | w -> failwith ("unknown workload " ^ w ^ "; " ^ usage)
      in
      let all, own =
        if trace then (Manifest.per_layer, traced @ Report.host_metrics)
        else (Report.end_to_end, Report.end_to_end)
      in
      Report.print ~correct samples ~all ~own metrics
    with
    | () -> 0
    | exception e ->
        Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
        1
  in
  Kernel.stop kernel;
  exit code
