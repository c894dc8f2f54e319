(* Workload `serve`: one client, one connection, driving `shell serve` at
   SHELL_JOBS=1 with lock requests, closed loop (the daemon runs one job at
   a time). The only workload that reads the pass cache and the spill
   store, and writes the store as well. *)

module C = Shell_core
module P = Shell_serve.Protocol
module Server = Shell_serve.Server
module Client = Shell_serve.Client
module Jobs = Shell_serve.Jobs

(* normalised ms per request when the benchmark was written *)
let nominal_ms = 45.

(* Environment of the daemon: none of the switches that would change what
   it measures, and one domain (at two it flips between two speeds from
   run to run, which normalisation cannot remove). *)
let daemon_env () =
  let drop =
    [ "SHELL_PASS_CACHE"; "SHELL_TRACE"; "SHELL_METRICS"; "SHELL_OBS";
      "SHELL_JOBS"; "SHELL_SOCKET" ]
  in
  let keep kv =
    not (List.exists (fun k -> String.starts_with ~prefix:(k ^ "=") kv) drop)
  in
  Array.of_list
    ("SHELL_JOBS=1" :: List.filter keep (Array.to_list (Unix.environment ())))

type daemon = { pid : int; client : Client.t }

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Spawn the daemon and wait until it answers a ping. *)
let start ~exe ~sock ~dir =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process_env exe
          [| exe; "serve"; "--socket"; sock; "--cache-dir"; dir |]
          (daemon_env ()) null null Unix.stderr)
  in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec connect () =
    match Client.connect (Server.Unix_sock sock) with
    | c -> c
    | exception Unix.Unix_error _
      when alive pid && Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.001;
        connect ()
  in
  let client = connect () in
  match Client.ping client with
  | Ok _ -> { pid; client }
  | Error m -> failwith ("daemon did not answer: " ^ m)

let stop d =
  ignore (Client.shutdown d.client);
  Client.close d.client;
  ignore (Unix.waitpid [] d.pid)

(* Last resort on an error path: the daemon must not outlive us. *)
let kill d =
  Client.close d.client;
  if alive d.pid then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end

let request (k : Streams.lock_op) =
  P.Lock
    {
      P.bench = k.circuit;
      style = k.style;
      route = [];
      lgc = [];
      seed = k.flow_seed;
    }

(* A response passes when it is a result, ends with a passing verify and
   repeats byte for byte every earlier response for its key ([previous]).
   Rejected and failed responses, and transport errors, fail. *)
let check ~previous = function
  | Ok (P.Result { output; _ }) ->
      String.ends_with ~suffix:"verify: PASS\n" output
      && Option.fold ~none:true ~some:(String.equal output) previous
  | Ok _ | Error _ -> false

let output = function Ok (P.Result { output; _ }) -> Some output | _ -> None

(* pass-cache counters from the daemon's Prometheus page *)
let cache_counters d =
  match Client.metrics d.client with
  | Error m -> failwith ("metrics: " ^ m)
  | Ok text ->
      let get name =
        List.fold_left
          (fun acc line ->
            match String.split_on_char ' ' line with
            | [ n; v ] when n = "shell_pipeline_cache_" ^ name ->
                int_of_string v
            | _ -> acc)
          0
          (String.split_on_char '\n' text)
      in
      (get "hits", get "misses", get "disk_hits", get "disk_writes")

(* seconds the daemon has spent in lock jobs so far *)
let job_seconds d =
  match Client.status d.client with
  | Error m -> failwith ("status: " ^ m)
  | Ok info ->
      List.fold_left
        (fun acc (s : P.job_span) ->
          if s.P.kind = "lock" then s.P.total_s else acc)
        0. info.P.job_spans

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Scratch space inside the working directory: a fresh socket and spill
   directory per run, removed at exit. The socket path stays relative so
   it fits the sun_path limit however deep the checkout is. *)
let tmp_root = ".perfbench-tmp"

let with_tmp f =
  (try Unix.mkdir tmp_root 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat tmp_root (string_of_int (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      try Unix.rmdir tmp_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let hit_steps = [ "elab"; "probe"; "verify"; "render" ]

(* The per-layer metrics of a traced run, by name and unit. *)
let traced =
  List.map
    (fun k -> ("serve.job_ms." ^ Streams.kind_name k, "ms"))
    Streams.[ Mem; Disk; Miss ]
  @ [
      ("serve.wire_ms", "ms");
      ("disk_p50_ms", "ms");
      ("cache.mem_hit_ratio", "ratio");
      ("cache.misses", "count");
      ("cache.disk_hits", "count");
      ("cache.disk_writes", "count");
      ("store.mb", "MB");
    ]
  @ List.map (fun s -> ("hit." ^ s ^ "_ms", "ms")) hit_steps

(* The warm-hit path replayed in-process: the pass cache is warmed by one
   untimed run of [key], then each call of the daemon's hit path is timed.
   [Jobs.lock_render] verifies again, as the daemon does. Returns the calls
   and the rendered output. *)
let replay_hit timer (key : Streams.lock_op) =
  let cfg = Lock_wl.config key in
  ignore (C.Flow.run cfg (Lock_wl.elaborate key.circuit));
  Timer.dirty timer;
  let (calls, out), b =
    Timer.time timer (fun () ->
        let calls = ref [] in
        let call name f =
          let t0 = Timer.now_ms () in
          let v = f () in
          calls := (name, Timer.now_ms () -. t0) :: !calls;
          v
        in
        let nl = call "elab" (fun () -> Lock_wl.elaborate key.circuit) in
        let r = call "probe" (fun () -> C.Flow.run cfg nl) in
        call "verify" (fun () -> ignore (C.Flow.verify r));
        let out = call "render" (fun () -> Jobs.lock_render r) in
        (!calls, out))
  in
  (List.map (fun (n, ms) -> (n, Timer.norm_part b ms)) calls, out)

let run ~timer ~trace ~seed ~seconds ~exe =
  Shell_util.Pool.set_default_jobs 1;
  let rounds =
    Streams.rounds ~seconds ~round_ops:Streams.serve_round_ops ~nominal_ms
  in
  let hot, lifetimes = Streams.serve ~seed ~rounds in
  with_tmp @@ fun dir ->
  let sock = Filename.concat dir "serve.sock" in
  let daemon = ref None in
  let up d =
    daemon := Some d;
    d
  in
  let down d =
    stop d;
    daemon := None
  in
  Fun.protect ~finally:(fun () -> Option.iter kill !daemon) @@ fun () ->
  let r = Report.samples () in
  let step f = Report.step r timer f in
  (* set-up: daemon A computes every hot key once, spilling it to a fresh
     directory; daemon B then starts cold on that directory. Every set-up
     must render each key to the same bytes. *)
  let outputs = Hashtbl.create 64 in
  let reps = ref 0 in
  let b, spill =
    Report.setup r
      ~discard:(fun (b, spill) ->
        down b;
        remove_tree spill)
      (fun () ->
        incr reps;
        let spill = Filename.concat dir (Printf.sprintf "spill-%d" !reps) in
        let a = step (fun () -> up (start ~exe ~sock ~dir:spill)) in
        List.iter
          (fun (key : Streams.lock_op) ->
            let resp = step (fun () -> Client.submit a.client (request key)) in
            match output resp with
            | Some out when check ~previous:(Hashtbl.find_opt outputs key) resp
              ->
                Hashtbl.replace outputs key out
            | _ ->
                failwith
                  (Printf.sprintf "set-up lock %s/%s seed %d failed"
                     key.circuit key.style key.flow_seed))
          hot;
        step (fun () -> down a);
        (step (fun () -> up (start ~exe ~sock ~dir:spill)), spill))
  in
  let job_ms = ref [] and wire_ms = ref [] and disk_ms = ref [] in
  let class_ok = ref true and rss = ref 0. and i = ref 0 in
  let cache = ref (0, 0, 0, 0) in
  let probe d =
    let c = cache_counters d and j = job_seconds d in
    Timer.dirty timer;
    (c, j)
  in
  let counters d = if trace then fst (probe d) else (0, 0, 0, 0) in
  let serve_lifetime d requests =
    Timer.dirty timer;
    let at_start = counters d in
    List.iter
      (fun (rq : Streams.request) ->
        (* traced requests are bracketed by counter probes *)
        let traced =
          Report.traced_round ~trace ~round_ops:Streams.serve_round_ops !i
        in
        let before = if traced then Some (probe d) else None in
        let resp, s =
          Timer.time timer (fun () -> Client.submit d.client (request rq.key))
        in
        let ok = check ~previous:(Hashtbl.find_opt outputs rq.key) resp in
        Report.op r ~traced ~ok s;
        (* a miss's first response is the reference for its key *)
        if ok && not (Hashtbl.mem outputs rq.key) then
          Option.iter (Hashtbl.replace outputs rq.key) (output resp);
        if ok && rq.kind = Streams.Disk then
          disk_ms := Timer.norm_ms s :: !disk_ms;
        Option.iter
          (fun ((h0, m0, d0, _), j0) ->
            let (h1, m1, d1, _), j1 = probe d in
            let seen =
              if m1 > m0 then Streams.Miss
              else if d1 > d0 then Streams.Disk
              else if h1 > h0 then Streams.Mem
              else Streams.Miss
            in
            if seen <> rq.kind then begin
              class_ok := false;
              Printf.eprintf
                "perfbench: request %d assumed %s, daemon counters say %s\n%!"
                !i (Streams.kind_name rq.kind) (Streams.kind_name seen)
            end;
            let job = 1000. *. (j1 -. j0) in
            job_ms := (rq.kind, Timer.norm_part s job) :: !job_ms;
            wire_ms := Timer.norm_part s (s.Timer.raw_ms -. job) :: !wire_ms)
          before;
        incr i)
      requests;
    let (h0, m0, d0, w0), (h1, m1, d1, w1) = (at_start, counters d) in
    let h, m, dh, w = !cache in
    cache := (h + h1 - h0, m + m1 - m0, dh + d1 - d0, w + w1 - w0);
    rss := Float.max !rss (Report.peak_rss_mb d.pid);
    down d
  in
  (* every later round restarts the daemon on the spill directory, so each
     hot key is a disk hit again *)
  List.iteri
    (fun n requests ->
      let d = if n = 0 then b else up (start ~exe ~sock ~dir:spill) in
      serve_lifetime d requests)
    lifetimes;
  let store_mb = float_of_int (dir_bytes spill) /. 1048576. in
  let replays =
    if trace then List.map (fun key -> (key, replay_hit timer key)) hot else []
  in
  (* the in-process hit renders the daemon's bytes *)
  let replays_same =
    List.for_all (fun (key, (_, out)) -> Hashtbl.find outputs key = out) replays
  in
  let correct = r.failed = 0 && !class_ok && replays_same in
  let metrics =
    if trace then
      let hits, misses, disk_hits, disk_writes = !cache in
      let job kind =
        Report.median_by kind !job_ms
          ("serve.job_ms." ^ Streams.kind_name kind)
          "ms"
      in
      let hit name =
        Report.opt ~samples:(List.length replays) ("hit." ^ name ^ "_ms") "ms"
          (Stats.median
             (List.map (fun (_, (calls, _)) -> List.assoc name calls) replays))
      in
      let lookups = hits + misses in
      let count name v = Report.metric name "count" (float_of_int v) in
      job Streams.Mem @ job Streams.Disk @ job Streams.Miss
      @ Report.opt ~samples:(List.length !wire_ms) "serve.wire_ms" "ms"
          (Stats.median !wire_ms)
      @ Report.opt ~samples:(List.length !disk_ms) "disk_p50_ms" "ms"
          (Stats.median !disk_ms)
      @ [
          Report.metric ~samples:lookups "cache.mem_hit_ratio" "ratio"
            (float_of_int (hits - disk_hits) /. float_of_int lookups);
          count "cache.misses" misses;
          count "cache.disk_hits" disk_hits;
          count "cache.disk_writes" disk_writes;
          Report.metric "store.mb" "MB" store_mb;
        ]
      @ List.concat_map hit hit_steps
      @ Report.host r timer
    else Report.timings r ~peak_rss_mb:!rss
  in
  (correct, r, metrics)
