module P = Protocol
module J = Shell_util.Jsonw
module Obs = Shell_util.Obs
module Clock = Shell_util.Clock
module Diag = Shell_util.Diag

type address = Unix_sock of string | Tcp of string * int

let address_of_string s =
  if String.length s = 0 then Error "empty address"
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port in address %S" s))
    | None -> Ok (Unix_sock s)

let address_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type config = {
  address : address;
  queue_cap : int;
  max_frame : int;
  max_seconds : float;
  store_dir : string option;
  cache_max_bytes : int option;
  log : bool;
}

let default_config address =
  {
    address;
    queue_cap = 64;
    max_frame = J.default_max_frame;
    max_seconds = 600.0;
    store_dir = None;
    cache_max_bytes = None;
    log = false;
  }

(* Per-job budget caps: a client can ask for any budget, the daemon
   clamps what it is willing to spend. Only time budgets are clamped —
   DIP/conflict/vector ceilings are memory-safe and deterministic. *)
let clamp_job max_seconds = function
  | P.Attack a -> P.Attack { a with P.seconds = Float.min a.P.seconds max_seconds }
  | P.Battery b ->
      P.Battery { b with P.bt_seconds = Float.min b.P.bt_seconds max_seconds }
  | (P.Lock _ | P.Fuzz _ | P.Lint _) as j -> j

(* ---------------- connections ---------------- *)

type conn = {
  fd : Unix.file_descr;
  fr : J.framer;
  out : Buffer.t;
  mutable written : int;  (* flushed prefix of [out] *)
  mutable alive : bool;
  mutable draining : bool;  (* close once [out] is flushed *)
}

let pending c = Buffer.length c.out - c.written

let send c resp =
  if c.alive then Buffer.add_string c.out (P.response_frame resp)

type pending_job = {
  pconn : conn;
  pid : int;
  pjob : P.job;
  admitted : float;  (* Clock.now () at admission *)
}

(* Job accounting lives in the one Obs registry, registered unstable so
   bench-history records never see it. A kind's job-time histogram is
   its status span: count = runs, sum = total microseconds. *)
let m_jobs_done =
  Obs.counter ~help:"serve jobs answered with a result" "serve_jobs_done"

let m_jobs_failed =
  Obs.counter ~help:"serve jobs answered with a failure" "serve_jobs_failed"

let m_jobs_rejected =
  Obs.counter ~help:"serve submissions rejected at admission"
    "serve_jobs_rejected"

(* The queue: its depth, set on every admission and every pop, and each
   job's wait from admission to the start of its run. *)
let m_queue_depth =
  Obs.gauge ~help:"serve jobs waiting in the admission queue"
    "serve_queue_depth"

let m_queue_wait_us =
  Obs.histogram ~help:"microseconds a serve job waited from admission to run"
    "serve_queue_wait_us"

let job_us_name kind = "serve_job_us_" ^ kind

let m_job_us =
  List.map
    (fun kind ->
      ( kind,
        Obs.histogram
          ~help:(Printf.sprintf "microseconds spent running %s jobs" kind)
          (job_us_name kind) ))
    P.job_kinds

(* ---------------- server ---------------- *)

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  queue : pending_job Admission.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  t0 : float;
  mutable stop : bool;
}

let logf t fmt =
  if t.cfg.log then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let listen_socket = function
  | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> Unix.inet_addr_loopback)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

let status_info t =
  let samples = Obs.snapshot () in
  let value name =
    List.find_map
      (fun (s : Obs.sample) -> if s.Obs.name = name then Some s.Obs.value else None)
      samples
  in
  let count name =
    match value name with Some (Obs.Counter n) -> n | _ -> 0
  in
  let job_spans =
    List.filter_map
      (fun kind ->
        match value (job_us_name kind) with
        | Some (Obs.Histogram { count; sum; _ }) when count > 0 ->
            Some { P.kind; runs = count; total_s = float_of_int sum /. 1e6 }
        | _ -> None)
      P.job_kinds
  in
  {
    P.queue_depth = Admission.depth t.queue;
    queue_cap = Admission.cap t.queue;
    running = not t.stop;
    jobs_done = count "serve_jobs_done";
    jobs_failed = count "serve_jobs_failed";
    jobs_rejected = count "serve_jobs_rejected";
    cache_hits = count "pipeline_cache_hits";
    cache_misses = count "pipeline_cache_misses";
    designs_elaborated = count "designs_elaborated";
    uptime_s = Clock.now () -. t.t0;
    job_spans;
  }

let handle_request t c = function
  | P.Ping { id } -> send c (P.Pong { id; server_version = P.version })
  | P.Status { id } -> send c (P.Status_r { id; info = status_info t })
  | P.Metrics { id } ->
      send c (P.Metrics_r { id; text = Obs.to_prometheus (Obs.snapshot ()) })
  | P.Shutdown { id } ->
      logf t "serve: shutdown requested";
      t.stop <- true;
      send c (P.Result { id; output = "shutting down\n" })
  | P.Submit { id; _ } when t.stop ->
      Obs.incr m_jobs_rejected;
      send c (P.Rejected { id; reason = "shutting down" })
  | P.Submit { id; priority; job } -> (
      let job = clamp_job t.cfg.max_seconds job in
      let queued =
        { pconn = c; pid = id; pjob = job; admitted = Clock.now () }
      in
      match Admission.push t.queue ~priority queued with
      | Ok () ->
          Obs.set m_queue_depth (Admission.depth t.queue);
          logf t "serve: admitted %s job #%d (priority %d, depth %d)"
            (P.job_kind job) id priority (Admission.depth t.queue)
      | Error d ->
          Obs.incr m_jobs_rejected;
          send c (P.Rejected { id; reason = Diag.to_string d }))

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove t.conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* A protocol breach (unparseable frame, oversized frame) gets one
   diagnostic response, then the connection drains and closes: inside
   a length-prefixed byte stream there is no resynchronisation
   point. *)
let breach t c message =
  send c (P.Failed { id = 0; message });
  c.draining <- true;
  logf t "serve: protocol breach: %s" message

let read_conn t c =
  let buf = Bytes.create 8192 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn t c
  | 0 -> if pending c = 0 then close_conn t c else c.draining <- true
  | n ->
      J.feed c.fr buf 0 n;
      let rec drain () =
        if c.alive && not c.draining then
          match J.next c.fr with
          | `Await -> ()
          | `Error e -> breach t c e
          | `Frame body -> (
              match P.request_of_frame body with
              | Ok req ->
                  handle_request t c req;
                  drain ()
              | Error e -> breach t c e)
      in
      drain ()

let write_conn t c =
  let len = pending c in
  if len > 0 then begin
    let bytes = Bytes.unsafe_of_string (Buffer.contents c.out) in
    match Unix.write c.fd bytes c.written len with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn t c
    | n ->
        c.written <- c.written + n;
        if c.written = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.written <- 0;
          if c.draining then close_conn t c
        end
  end
  else if c.draining then close_conn t c

let accept_conn t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      let c =
        {
          fd;
          fr = J.framer ~max_frame:t.cfg.max_frame ();
          out = Buffer.create 256;
          written = 0;
          alive = true;
          draining = false;
        }
      in
      Hashtbl.replace t.conns fd c

(* Jobs run inline in the event loop, one at a time: parallelism lives
   inside a job (the domain pool), and serializing jobs is what keeps
   outputs and cache-counter observations deterministic. While a job
   runs, waiting clients queue in kernel buffers. *)
let run_one_job t =
  match Admission.pop t.queue with
  | None -> ()
  | Some { pconn; pid; pjob; admitted } ->
      let kind = P.job_kind pjob in
      logf t "serve: running %s job #%d" kind pid;
      let t0 = Clock.now () in
      Obs.set m_queue_depth (Admission.depth t.queue);
      Obs.observe_us m_queue_wait_us (t0 -. admitted);
      (* the job's span tree comes back to us instead of joining the
         process-wide roots: dropped here rather than kept for the
         daemon's lifetime (a per-request trace would return it) *)
      let result =
        match
          Obs.with_root_span ("serve.job." ^ kind) (fun () -> Jobs.run pjob)
        with
        | r, _root -> r
        | exception Diag.Error d -> Error d
        | exception exn -> Error (Diag.make ~pass:"serve" (Printexc.to_string exn))
      in
      Obs.observe_us (List.assoc kind m_job_us) (Clock.now () -. t0);
      (match result with
      | Ok output ->
          Obs.incr m_jobs_done;
          send pconn (P.Result { id = pid; output })
      | Error d ->
          Obs.incr m_jobs_failed;
          send pconn (P.Failed { id = pid; message = Diag.to_string d }))

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let create cfg =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> () (* no SIGPIPE on this platform *));
  (match cfg.store_dir with
  | Some dir ->
      let store = Store.create ~root:dir in
      (* prune before attaching: a daemon restarted against a bloated
         spill directory starts back under its cap *)
      (match cfg.cache_max_bytes with
      | Some max_bytes ->
          let rep = Store.gc store ~max_bytes in
          if cfg.log then
            Printf.eprintf "serve: %s\n%!"
              (Format.asprintf "%a" Store.pp_gc_report rep)
      | None -> ());
      Store.attach store
  | None -> ());
  let listen_fd = listen_socket cfg.address in
  {
    cfg;
    listen_fd;
    queue = Admission.create ~cap:cfg.queue_cap;
    conns = Hashtbl.create 16;
    t0 = Clock.now ();
    stop = false;
  }

let shutdown_cleanup t =
  List.iter (fun c -> close_conn t c) (conn_list t);
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.cfg.address with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Store.detach ()

let serve ?(on_ready = fun () -> ()) cfg =
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let t = create cfg in
  logf t "serve: listening on %s (queue cap %d)"
    (address_to_string cfg.address) cfg.queue_cap;
  on_ready ();
  let finished () =
    t.stop && Admission.is_empty t.queue
    && List.for_all (fun c -> pending c = 0) (conn_list t)
  in
  while not (finished ()) do
    let conns = conn_list t in
    let rds = t.listen_fd :: List.map (fun c -> c.fd) conns in
    let wrs =
      List.filter_map
        (fun c -> if pending c > 0 || c.draining then Some c.fd else None)
        conns
    in
    let timeout = if Admission.is_empty t.queue then 0.2 else 0.0 in
    match Unix.select rds wrs [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if List.mem t.listen_fd readable then accept_conn t;
        List.iter
          (fun c ->
            if c.alive && List.mem c.fd readable then read_conn t c)
          conns;
        List.iter
          (fun c ->
            if c.alive && List.mem c.fd writable then write_conn t c)
          conns;
        run_one_job t
  done;
  shutdown_cleanup t;
  Obs.set_enabled was_enabled
