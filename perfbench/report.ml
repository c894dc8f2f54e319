(* Samples of a run, the metrics made from them (by name, unit and sample
   count), and the result line: the last stdout line is the JSON result. *)

type metric = { name : string; unit : string; value : float; samples : int }

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

(* [None] (e.g. a p90 over too few ops) drops the metric *)
let opt ?samples name unit = function
  | Some v -> [ metric ?samples name unit v ]
  | None -> []

(* The median of the values recorded under [key]. *)
let median_by key pairs name unit =
  let v =
    List.filter_map (fun (k, x) -> if k = key then Some x else None) pairs
  in
  opt ~samples:(List.length v) name unit (Stats.median v)

type samples = {
  mutable attempted : int;
  mutable failed : int;
  mutable setup_steps : int;
  mutable rep_ms : float list;  (** normalised steps of this set-up *)
  mutable setup_ms : float list;  (** normalised sum of each set-up *)
  mutable op_ms : float list;  (** normalised ops that passed their checks *)
  mutable raw_ms : float list;  (** the same ops, wall time *)
  mutable traced_ms : float list;  (** [op_ms] of the traced ops *)
  mutable untraced_ms : float list;
}

let samples () =
  {
    attempted = 0;
    failed = 0;
    setup_steps = 0;
    rep_ms = [];
    setup_ms = [];
    op_ms = [];
    raw_ms = [];
    traced_ms = [];
    untraced_ms = [];
  }

(* Set-up runs this many times and setup_s is the median, so one slow
   step (a host stall, the pool spawning its domains on first use) does
   not move it. *)
let setup_reps = 3

(* Run [f] [setup_reps] times; returns the last value and hands the
   others to [discard]. *)
let setup ?(discard = ignore) r f =
  let rec go i =
    r.rep_ms <- [];
    let v = f () in
    r.setup_ms <- Stats.sum r.rep_ms :: r.setup_ms;
    if i = setup_reps then v
    else begin
      discard v;
      go (i + 1)
    end
  in
  go 1

(* One set-up step, timed and normalised on its own. *)
let step r timer f =
  let v, s = Timer.time timer f in
  r.setup_steps <- r.setup_steps + 1;
  r.rep_ms <- Timer.norm_ms s :: r.rep_ms;
  v

(* A traced run traces every other round, so the untraced rounds between
   them measure what tracing costs an op. *)
let traced_round ~trace ~round_ops i = trace && i / round_ops mod 2 = 1

(* Count an op; keep its times only when its output passed the checks, so
   a failed op never reads as a fast one. *)
let op r ~traced ~ok (s : Timer.sample) =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1
  else begin
    let ms = Timer.norm_ms s in
    r.op_ms <- ms :: r.op_ms;
    r.raw_ms <- s.Timer.raw_ms :: r.raw_ms;
    if traced then r.traced_ms <- ms :: r.traced_ms
    else r.untraced_ms <- ms :: r.untraced_ms
  end

(* The end-to-end metrics, by name and unit: every workload reports all
   of them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let timings r ~peak_rss_mb =
  let n = List.length r.op_ms in
  opt ~samples:r.setup_steps "setup_s" "s"
    (Option.map (fun ms -> ms /. 1000.) (Stats.median r.setup_ms))
  @ opt ~samples:n "ops_per_s" "1/s" (Stats.rate_per_s r.op_ms)
  @ opt ~samples:n "p50_ms" "ms" (Stats.median r.op_ms)
  @ opt ~samples:n "p90_ms" "ms" (Stats.p90 r.op_ms)
  @ [ metric "peak_rss_mb" "MB" peak_rss_mb ]

(* The per-layer metrics every traced run reports besides its layers. *)
let host_metrics =
  [
    ("host.calib_ms", "ms");
    ("raw.p50_ms", "ms");
    ("raw.p90_ms", "ms");
    ("raw.ops_per_s", "1/s");
    ("trace.overhead_pct", "%");
  ]

(* What every traced run reports besides its layers: the kernel's median,
   the un-normalised op times (a gain that shows only after normalisation
   is host drift), and what tracing costs an op. *)
let host r (timer : Timer.t) =
  let n = List.length r.raw_ms in
  let overhead =
    match (Stats.median r.traced_ms, Stats.median r.untraced_ms) with
    | Some t, Some u -> Some (100. *. ((t /. u) -. 1.))
    | _ -> None
  in
  opt ~samples:(List.length timer.calib) "host.calib_ms" "ms"
    (Stats.median timer.calib)
  @ opt ~samples:n "raw.p50_ms" "ms" (Stats.median r.raw_ms)
  @ opt ~samples:n "raw.p90_ms" "ms" (Stats.p90 r.raw_ms)
  @ opt ~samples:n "raw.ops_per_s" "1/s" (Stats.rate_per_s r.raw_ms)
  @ opt ~samples:n "trace.overhead_pct" "%" overhead

(* Current value of a registered Obs counter. *)
let obs_counter name =
  List.fold_left
    (fun acc (s : Shell_util.Obs.sample) ->
      match s.value with
      | Shell_util.Obs.Counter v when s.name = name -> v
      | _ -> acc)
    0
    (Shell_util.Obs.snapshot ())

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.json_number: not finite"

(* The result line holds every metric of [all], in its unit, whatever the
   workload: that is one kind of run's set in BENCHMARK.json. [metrics] are
   what the workload measured and [own] what it defines; each of [own] must
   be among [metrics], or the run is not correct. A metric of [all] that is
   not in [own] belongs to a layer the workload does not load, or one that
   another workload measures: it reads 0 over 0 samples. *)
let print ~correct r ~all ~own metrics =
  List.iter
    (fun m ->
      if List.assoc_opt m.name own <> Some m.unit then
        invalid_arg ("Report.print: undeclared metric " ^ m.name))
    metrics;
  List.iter
    (fun (name, unit) ->
      if List.assoc_opt name all <> Some unit then
        invalid_arg ("Report.print: " ^ name ^ " is not in the manifest"))
    own;
  let missing =
    List.filter
      (fun (name, _) -> not (List.exists (fun m -> m.name = name) metrics))
      own
  in
  List.iter
    (fun (name, _) -> Printf.eprintf "perfbench: no %s was measured\n" name)
    missing;
  let correct = correct && missing = [] in
  List.iter
    (fun m ->
      Printf.printf "%-26s %16.4f %-6s n=%d\n" m.name m.value m.unit m.samples)
    metrics;
  Printf.printf "attempted %d, failed %d, correct %b\n" r.attempted r.failed
    correct;
  let value name =
    match List.find_opt (fun m -> m.name = name) metrics with
    | Some m -> m.value
    | None -> 0.
  in
  let body =
    String.concat ","
      (List.map
         (fun (name, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
             (json_number (value name)) unit)
         all)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct r.attempted r.failed body
