module N = Shell_netlist.Netlist
module Verilog = Shell_netlist.Verilog
module Rng = Shell_util.Rng
module Pool = Shell_util.Pool
module Obs = Shell_util.Obs

type failure = {
  case : int;
  oracle : string;
  shape : string;
  message : string;
  netlist : N.t;
  shrink : Shrink.stats option;
  reproducer : string option;
}

type oracle_stat = { name : string; passed : int; failed : int; skipped : int }

type report = {
  seed : int;
  cases : int;
  stats : oracle_stat list;
  failures : failure list;
}

let ok r = r.failures = []

(* Telemetry: aggregated post-collection on the main domain (Obs
   counters are not synchronized), so values are jobs-independent. *)
let c_cases = Obs.counter ~stable:true ~help:"fuzz cases generated" "fuzz_cases_total"
let c_checks = Obs.counter ~stable:true ~help:"fuzz oracle checks run" "fuzz_checks_total"
let c_failures = Obs.counter ~stable:true ~help:"fuzz oracle failures" "fuzz_failures_total"
let c_skips = Obs.counter ~stable:true ~help:"fuzz oracle skips" "fuzz_skips_total"

(* One case: generate, run every applicable oracle, shrink failures.
   Pure in (seed, i, oracle selection) — runs inside a Pool worker. *)
let run_case ~oracles ~shrink ~seed i =
  let rng = Pool.task_rng ~seed i in
  let shape = Gen.random_shape rng in
  let nl = Gen.netlist rng shape in
  let shape_str = Format.asprintf "%a" Gen.pp_shape shape in
  let results =
    List.map
      (fun (o : Oracles.t) ->
        if not (o.Oracles.applies shape) then
          (o.Oracles.name, Oracles.Skip "shape not applicable", None)
        else
          (* the oracle's own stream number, so running a single oracle
             replays exactly the stream it sees in the full battery *)
          let orng = Rng.child rng (1 + (2 * o.Oracles.stream)) in
          let v = o.Oracles.run (Rng.copy orng) nl in
          match v with
          | Oracles.Fail _ when shrink ->
              let failing cand =
                match o.Oracles.run (Rng.copy orng) cand with
                | Oracles.Fail _ -> true
                | Oracles.Pass | Oracles.Skip _ -> false
                | exception _ -> false
              in
              let small, st = Shrink.minimize ~failing nl in
              (o.Oracles.name, v, Some (small, st))
          | _ -> (o.Oracles.name, v, None))
      oracles
  in
  (shape_str, nl, results)

let write_reproducer ~dir ~seed (f : failure) =
  let path =
    Filename.concat dir (Printf.sprintf "fuzz_%s_s%d_c%d.v" f.oracle seed f.case)
  in
  let oc = open_out path in
  Printf.fprintf oc "// shell fuzz reproducer (minimized)\n";
  Printf.fprintf oc "// oracle: %s\n" f.oracle;
  Printf.fprintf oc "// seed: %d  case: %d\n" seed f.case;
  Printf.fprintf oc "// shape: %s\n" f.shape;
  Printf.fprintf oc "// failure: %s\n"
    (String.map (fun c -> if c = '\n' then ' ' else c) f.message);
  (match f.shrink with
  | Some s ->
      Printf.fprintf oc "// shrink: %d -> %d cells in %d oracle calls\n"
        s.Shrink.cells_before s.Shrink.cells_after s.Shrink.oracle_calls
  | None -> ());
  output_string oc (Verilog.to_string f.netlist);
  close_out oc;
  path

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* The first oracle of each name: a repeated one would run twice per
   case and tally both runs under its one name. *)
let distinct oracles =
  let named (o : Oracles.t) (p : Oracles.t) = p.Oracles.name = o.Oracles.name in
  List.fold_left
    (fun acc o -> if List.exists (named o) acc then acc else o :: acc)
    [] oracles
  |> List.rev

let run ?jobs ?(oracles = Oracles.all) ?(shrink = true) ?out_dir ~seed ~cases () =
  let oracles = distinct oracles in
  Obs.with_span "fuzz" @@ fun () ->
  let results =
    Pool.mapi ?jobs
      (fun i () -> run_case ~oracles ~shrink ~seed i)
      (Array.make cases ())
  in
  Obs.add c_cases cases;
  (match out_dir with Some d -> mkdirs d | None -> ());
  let stats = Hashtbl.create 16 in
  List.iter
    (fun (o : Oracles.t) -> Hashtbl.replace stats o.Oracles.name (0, 0, 0))
    oracles;
  let bump name f =
    let p, fl, s = try Hashtbl.find stats name with Not_found -> (0, 0, 0) in
    Hashtbl.replace stats name (f (p, fl, s))
  in
  let failures = ref [] in
  Array.iteri
    (fun case (shape_str, nl, per_oracle) ->
      List.iter
        (fun (name, verdict, shrunk) ->
          match verdict with
          | Oracles.Pass ->
              Obs.incr c_checks;
              bump name (fun (p, f, s) -> (p + 1, f, s))
          | Oracles.Skip _ ->
              Obs.incr c_skips;
              bump name (fun (p, f, s) -> (p, f, s + 1))
          | Oracles.Fail message ->
              Obs.incr c_checks;
              Obs.incr c_failures;
              bump name (fun (p, f, s) -> (p, f + 1, s));
              let netlist, shrink_stats =
                match shrunk with
                | Some (small, st) -> (small, Some st)
                | None -> (nl, None)
              in
              let f =
                {
                  case;
                  oracle = name;
                  shape = shape_str;
                  message;
                  netlist;
                  shrink = shrink_stats;
                  reproducer = None;
                }
              in
              let f =
                match out_dir with
                | Some dir -> { f with reproducer = Some (write_reproducer ~dir ~seed f) }
                | None -> f
              in
              failures := f :: !failures)
        per_oracle)
    results;
  let stats =
    List.map
      (fun (o : Oracles.t) ->
        let p, f, s = Hashtbl.find stats o.Oracles.name in
        { name = o.Oracles.name; passed = p; failed = f; skipped = s })
      oracles
  in
  { seed; cases; stats; failures = List.rev !failures }

let pp_report ppf r =
  Format.fprintf ppf "fuzz: seed=%d cases=%d oracles=%d@." r.seed r.cases
    (List.length r.stats);
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-12s pass=%-6d fail=%-4d skip=%d@." s.name s.passed
        s.failed s.skipped)
    r.stats;
  let checks =
    List.fold_left (fun acc s -> acc + s.passed + s.failed) 0 r.stats
  in
  Format.fprintf ppf "  total: %d checks, %d failure%s@." checks
    (List.length r.failures)
    (if List.length r.failures = 1 then "" else "s");
  List.iter
    (fun f ->
      Format.fprintf ppf "FAIL case=%d oracle=%s (%s)@.  %s@." f.case f.oracle
        f.shape f.message;
      (match f.shrink with
      | Some s ->
          Format.fprintf ppf "  shrunk %d -> %d cells (%d oracle calls)@."
            s.Shrink.cells_before s.Shrink.cells_after s.Shrink.oracle_calls
      | None -> ());
      match f.reproducer with
      | Some p -> Format.fprintf ppf "  reproducer: %s@." p
      | None -> ())
    r.failures

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

type self_stat = {
  oracle : string;
  attempts : int;
  caught : int;
  missed : int;
  classes : (string * (int * int)) list;
}

let self_test ?jobs ?(oracles = Oracles.all) ~seed ~cases () =
  let oracles = distinct oracles in
  Obs.with_span "fuzz-self-test" @@ fun () ->
  let results =
    Pool.mapi ?jobs
      (fun i () ->
        let rng = Pool.task_rng ~seed i in
        let shape = Gen.random_shape rng in
        let nl = Gen.netlist rng shape in
        List.map
          (fun (o : Oracles.t) ->
            if not (o.Oracles.applies shape) then (o.Oracles.name, None)
            else
              let irng = Rng.child rng (2 + (2 * o.Oracles.stream)) in
              (o.Oracles.name, o.Oracles.inject irng nl))
          oracles)
      (Array.make cases ())
  in
  let tally = Hashtbl.create 16 in
  let classes = Hashtbl.create 32 in
  List.iter
    (fun (o : Oracles.t) -> Hashtbl.replace tally o.Oracles.name (0, 0, 0))
    oracles;
  let bump name label hit =
    let a, c, m = Hashtbl.find tally name in
    Hashtbl.replace tally name
      (if hit then (a + 1, c + 1, m) else (a + 1, c, m + 1));
    let kc, km =
      Option.value ~default:(0, 0) (Hashtbl.find_opt classes (name, label))
    in
    Hashtbl.replace classes (name, label)
      (if hit then (kc + 1, km) else (kc, km + 1))
  in
  Array.iter
    (fun per_oracle ->
      List.iter
        (fun (name, outcome) ->
          match outcome with
          | None | Some (_, Oracles.Skip _) -> ()
          | Some (label, Oracles.Fail _) -> bump name label true
          | Some (label, Oracles.Pass) -> bump name label false)
        per_oracle)
    results;
  List.map
    (fun (o : Oracles.t) ->
      let a, c, m = Hashtbl.find tally o.Oracles.name in
      let cls =
        Hashtbl.fold
          (fun (name, label) counts acc ->
            if name = o.Oracles.name then (label, counts) :: acc else acc)
          classes []
        |> List.sort compare
      in
      {
        oracle = o.Oracles.name;
        attempts = a;
        caught = c;
        missed = m;
        classes = cls;
      })
    oracles

(* Fault classes specific oracles must demonstrably flag, beyond the
   blanket "caught something" bar. Each group is satisfied by any one
   of its labels: the lint battery must flag LUT bit flips, mux
   arm/sel swaps and gate negations; the Simw cross-check must prove
   it catches LUT bit flips (the word-level cofactor path). *)
let required_classes =
  [
    ( "lint",
      [
        [ "lut-bit-flip" ];
        [ "mux-arm-swap"; "mux-sel-swap" ];
        [ "gate-negate" ];
      ] );
    ("simw_vs_sim", [ [ "lut-bit-flip" ] ]);
  ]

let self_test_ok stats =
  stats <> []
  && List.for_all (fun s -> s.attempts > 0 && s.caught > 0) stats
  && List.for_all
       (fun s ->
         match List.assoc_opt s.oracle required_classes with
         | None -> true
         | Some groups ->
             List.for_all
               (fun group ->
                 List.exists
                   (fun label ->
                     match List.assoc_opt label s.classes with
                     | Some (caught, _) -> caught > 0
                     | None -> false)
                   group)
               groups)
       stats

let pp_self_test ppf stats =
  Format.fprintf ppf "mutation-injection self-test:@.";
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-12s injected=%-5d caught=%-5d missed=%-4d %s@."
        s.oracle s.attempts s.caught s.missed
        (if s.attempts = 0 then "NO-INJECTION"
         else if s.caught = 0 then "BLIND"
         else "ok");
      if s.classes <> [] then
        Format.fprintf ppf "    %s@."
          (String.concat ", "
             (List.map
                (fun (label, (c, m)) ->
                  Printf.sprintf "%s %d/%d" label c (c + m))
                s.classes)))
    stats
