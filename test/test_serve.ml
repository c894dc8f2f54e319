(* Tests for the serve daemon: Jsonw framing edge cases, protocol
   codec round-trips, admission-queue semantics, and an in-process
   server exercised over a real Unix socket — concurrent clients,
   queue-full rejection, protocol breaches, and the warm-from-disk
   restart path. *)

module J = Shell_util.Jsonw
module Diag = Shell_util.Diag
module P = Shell_serve.Protocol
module Admission = Shell_serve.Admission
module Jobs = Shell_serve.Jobs
module Server = Shell_serve.Server
module Client = Shell_serve.Client
module Store = Shell_serve.Store
module Pipeline = Shell_core.Pipeline
module Obs = Shell_util.Obs

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let uniq = ref 0

let temp_path suffix =
  incr uniq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "shell_serve_%d_%d%s" (Unix.getpid ()) !uniq suffix)

(* ---- framing ---- *)

let test_framer_split_feeds () =
  let f1 = J.frame (J.Obj [ ("a", J.Int 1) ]) in
  let f2 = J.frame (J.Str "second frame") in
  let wire = f1 ^ f2 in
  let fr = J.framer () in
  let got = ref [] in
  (* feed one byte at a time: every frame boundary lands mid-read *)
  String.iter
    (fun c ->
      J.feed_string fr (String.make 1 c);
      match J.next fr with
      | `Frame body -> got := body :: !got
      | `Await -> ()
      | `Error e -> Alcotest.failf "unexpected framer error: %s" e)
    wire;
  (match List.rev !got with
  | [ b1; b2 ] ->
      Alcotest.(check string) "first body" "{\"a\":1}" b1;
      Alcotest.(check string) "second body" "\"second frame\"" b2
  | bs -> Alcotest.failf "expected 2 frames, got %d" (List.length bs));
  (* both frames in a single feed also works *)
  let fr = J.framer () in
  J.feed_string fr wire;
  Alcotest.(check bool) "frame 1" true (J.next fr <> `Await);
  Alcotest.(check bool) "frame 2" true (J.next fr <> `Await);
  Alcotest.(check bool) "then await" true (J.next fr = `Await)

let test_framer_oversized_sticky () =
  let fr = J.framer ~max_frame:16 () in
  let big = J.frame (J.Str (String.make 64 'x')) in
  J.feed_string fr big;
  (match J.next fr with
  | `Error e ->
      Alcotest.(check bool) "error mentions the limit" true
        (contains e "16")
  | `Frame _ | `Await -> Alcotest.fail "oversized frame accepted");
  (* sticky: feeding a small valid frame afterwards cannot recover *)
  J.feed_string fr (J.frame (J.Int 1));
  (match J.next fr with
  | `Error _ -> ()
  | `Frame _ | `Await -> Alcotest.fail "framer error was not sticky");
  (* the writer side refuses to build an oversized frame at all *)
  match J.frame ~max_frame:16 (J.Str (String.make 64 'x')) with
  | _ -> Alcotest.fail "frame built past max_frame"
  | exception Invalid_argument _ -> ()

(* ---- protocol codec ---- *)

let sample_lock =
  { P.bench = "FIR"; style = "openfpga"; route = [ "r0" ]; lgc = [ "g1" ];
    seed = 7 }

let sample_requests =
  [
    P.Submit { id = 1; priority = 2; job = P.Lock sample_lock };
    P.Submit
      {
        id = 2;
        priority = 0;
        job =
          P.Attack
            {
              target = sample_lock;
              attack = "sat";
              dips = 9;
              conflicts = 100;
              seconds = 1.5;
              vectors = 32;
            };
      };
    P.Submit
      {
        id = 3;
        priority = 1;
        job =
          P.Battery
            {
              benches = [ "FIR"; "IIR" ];
              schemes = [ "xor:8" ];
              attacks = [ "sat" ];
              bt_seed = 1;
              bt_dips = 2;
              bt_conflicts = 3;
              bt_seconds = 0.25;
              bt_vectors = 4;
            };
      };
    P.Submit { id = 4; priority = 0; job = P.Fuzz { fz_seed = 5; cases = 6 } };
    P.Submit
      {
        id = 5;
        priority = 0;
        job =
          P.Lint
            {
              lint_benches = [ "FIR" ];
              locked = true;
              lint_style = "fabulous";
              lint_seed = 11;
            };
      };
    P.Status { id = 6 };
    P.Metrics { id = 7 };
    P.Ping { id = 8 };
    P.Shutdown { id = 9 };
  ]

let sample_responses =
  [
    P.Result { id = 1; output = "summary\nwith \"quotes\" and \xf0\x9f\x98\x80\n" };
    P.Rejected { id = 2; reason = "queue_full depth=4 cap=4" };
    P.Failed { id = 0; message = "bad frame" };
    P.Status_r
      {
        id = 3;
        info =
          {
            P.queue_depth = 1;
            queue_cap = 64;
            running = true;
            jobs_done = 5;
            jobs_failed = 1;
            jobs_rejected = 2;
            cache_hits = 9;
            cache_misses = 9;
            designs_elaborated = 2;
            uptime_s = 1.25;
            job_spans = [ { P.kind = "lock"; runs = 2; total_s = 0.5 } ];
          };
      };
    P.Metrics_r { id = 4; text = "# TYPE shell_x counter\nshell_x 1\n" };
    P.Pong { id = 5; server_version = P.version };
  ]

(* decode through the framer, as the wire does *)
let unframe wire =
  let fr = J.framer () in
  J.feed_string fr wire;
  match J.next fr with
  | `Frame body -> body
  | `Await | `Error _ -> Alcotest.fail "frame did not reassemble"

let test_protocol_roundtrip () =
  List.iter
    (fun r ->
      match P.request_of_frame (unframe (P.request_frame r)) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.failf "request decode failed: %s" e)
    sample_requests;
  List.iter
    (fun r ->
      match P.response_of_frame (unframe (P.response_frame r)) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error e -> Alcotest.failf "response decode failed: %s" e)
    sample_responses

let test_protocol_rejects () =
  (* malformed JSON is an error, not an exception *)
  (match P.request_of_frame "{oops" with
  | Ok _ -> Alcotest.fail "malformed JSON accepted"
  | Error _ -> ());
  (* a foreign protocol version gets one clean error *)
  (match P.request_of_frame "{\"v\":2,\"type\":\"ping\",\"id\":1}" with
  | Ok _ -> Alcotest.fail "foreign version accepted"
  | Error e ->
      Alcotest.(check bool) "names the version" true (contains e "version 2"));
  (* unknown request type / job kind *)
  (match P.request_of_frame "{\"v\":1,\"type\":\"dance\",\"id\":1}" with
  | Ok _ -> Alcotest.fail "unknown type accepted"
  | Error e -> Alcotest.(check bool) "names the type" true (contains e "dance"));
  match
    P.request_of_frame
      "{\"v\":1,\"type\":\"submit\",\"id\":1,\"priority\":0,\"job\":{\"zap\":{}}}"
  with
  | Ok _ -> Alcotest.fail "unknown job kind accepted"
  | Error e -> Alcotest.(check bool) "names the kind" true (contains e "zap")

(* ---- admission ---- *)

let test_admission_order () =
  let q = Admission.create ~cap:8 in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "push rejected" in
  ok (Admission.push q ~priority:0 "a");
  ok (Admission.push q ~priority:0 "b");
  ok (Admission.push q ~priority:5 "hot");
  ok (Admission.push q ~priority:0 "c");
  ok (Admission.push q ~priority:5 "hot2");
  let drain () =
    let rec go acc =
      match Admission.pop q with None -> List.rev acc | Some x -> go (x :: acc)
    in
    go []
  in
  Alcotest.(check (list string))
    "priority first, FIFO within" [ "hot"; "hot2"; "a"; "b"; "c" ] (drain ());
  Alcotest.(check bool) "empty after drain" true (Admission.is_empty q)

let test_admission_queue_full () =
  let q = Admission.create ~cap:2 in
  ignore (Admission.push q ~priority:0 "a");
  ignore (Admission.push q ~priority:0 "b");
  (match Admission.push q ~priority:9 "c" with
  | Ok () -> Alcotest.fail "push past cap accepted"
  | Error d -> (
      Alcotest.(check bool) "typed payload" true
        (match d.Diag.payload with
        | Admission.Queue_full { depth = 2; cap = 2 } -> true
        | _ -> false);
      Alcotest.(check bool) "renders queue_full" true
        (contains (Diag.to_string d) "queue_full depth=2 cap=2")));
  (* popping frees a slot again *)
  ignore (Admission.pop q);
  (match Admission.push q ~priority:0 "c" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "push after pop rejected");
  match Admission.create ~cap:0 with
  | _ -> Alcotest.fail "cap 0 accepted"
  | exception Invalid_argument _ -> ()

(* ---- shared job helpers ---- *)

(* One lint-subject builder: re-linting a flow result reproduces the
   lint pass's own report, byte for byte. *)
let test_lint_subject_of_result () =
  let r =
    match
      Jobs.lock_flow
        { P.bench = "FIR"; style = "muxchain"; route = []; lgc = []; seed = 0x51e11 }
    with
    | Ok r -> r
    | Error d -> Alcotest.failf "lock failed: %s" (Diag.to_string d)
  in
  let json rep = J.to_string ~indent:2 (Shell_lint.Lint.report_json rep) in
  Alcotest.(check string)
    "re-lint equals the pass report" (json r.Shell_core.Flow.lint)
    (json
       (Shell_lint.Lint.run ~rules:Shell_lint.Rules.all
          (Jobs.lint_subject_of_result r)))

(* The one subject builder both lint front ends call turns an unknown
   benchmark into a typed error, locked or not. *)
let test_lint_subject_of_bench () =
  List.iter
    (fun locked ->
      match
        Jobs.lint_subjects
          {
            P.lint_benches = [ "FIR"; "NoSuchBench" ];
            locked;
            lint_style = "muxchain";
            lint_seed = 0;
          }
      with
      | Error d ->
          Alcotest.(check bool) "names the bench" true
            (contains (Diag.to_string d) "NoSuchBench")
      | Ok _ -> Alcotest.fail "unknown benchmark must be an error")
    [ false; true ]

(* The elapsed seconds ("1.23s") of an attack report, masked. *)
let mask_seconds s =
  let b = Buffer.create (String.length s) and n = String.length s in
  let is_digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let rec digits i = if is_digit i then digits (i + 1) else i in
  let rec go i =
    if i >= n then ()
    else if is_digit i then begin
      let j = digits i in
      let k = if j < n && s.[j] = '.' then digits (j + 1) else j in
      if k > j + 1 && k < n && s.[k] = 's' then begin
        Buffer.add_string b "Xs";
        go (k + 1)
      end
      else begin
        Buffer.add_string b (String.sub s i (j - i));
        go j
      end
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let designs_elaborated () =
  List.fold_left
    (fun acc (s : Obs.sample) ->
      match s.Obs.value with
      | Obs.Counter n when s.Obs.name = "designs_elaborated" -> n
      | _ -> acc)
    0 (Obs.snapshot ())

(* Every job of a process reads the one memoized design and none
   mutates it. Over lock, attack, battery and lint (plain and locked)
   on one bench, the design is elaborated once, keeps its fingerprint,
   and each job's output is the one it gives alone on a design
   elaborated for it, with a cold pass cache. *)
let test_jobs_share_design () =
  let bench = "FIR" in
  let lock = { P.bench; style = "muxchain"; route = []; lgc = []; seed = 3 } in
  let lint locked =
    P.Lint { P.lint_benches = [ bench ]; locked; lint_style = "fabulous"; lint_seed = 5 }
  in
  let jobs =
    [
      P.Lock lock;
      P.Attack
        {
          P.target = lock;
          attack = "sat";
          dips = 2;
          conflicts = 1000;
          seconds = 120.;
          vectors = 64;
        };
      P.Battery
        {
          P.benches = [ bench ];
          schemes = [ "xor:8"; "mux:8" ];
          attacks = [ "sat"; "structural"; "redundancy" ];
          bt_seed = 11;
          bt_dips = 8;
          bt_conflicts = 5000;
          bt_seconds = 120.;
          bt_vectors = 64;
        };
      lint false;
      lint true;
    ]
  in
  let run job =
    match Jobs.run job with
    | Ok out -> mask_seconds out
    | Error d -> Alcotest.failf "%s: %s" (P.job_kind job) (Diag.to_string d)
  in
  let alone =
    List.map
      (fun job ->
        Jobs.clear_designs ();
        Pipeline.clear_cache ();
        run job)
      jobs
  in
  Jobs.clear_designs ();
  Pipeline.clear_cache ();
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let before = designs_elaborated () in
  let design () =
    match Jobs.netlist_of_bench bench with
    | Ok nl -> nl
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let nl = design () in
  let digest = Shell_netlist.Netlist.fingerprint nl in
  let shared = List.map run jobs in
  let elaborated = designs_elaborated () - before in
  Obs.set_enabled was_enabled;
  Alcotest.(check int) "elaborated once" 1 elaborated;
  Alcotest.(check bool) "one design" true (design () == nl);
  Alcotest.(check bool) "any spelling" true
    (match Jobs.netlist_of_bench (String.lowercase_ascii bench) with
    | Ok nl' -> nl' == nl
    | Error _ -> false);
  Alcotest.(check string) "fingerprint unchanged" digest
    (Shell_netlist.Netlist.fingerprint nl);
  List.iter2
    (fun (job, alone) shared ->
      Alcotest.(check string) (P.job_kind job ^ " output") alone shared)
    (List.combine jobs alone) shared

(* ---- server integration (in-process, real Unix socket) ---- *)

let start_server cfg_of_addr =
  let path = temp_path ".sock" in
  let addr = Server.Unix_sock path in
  let cfg = cfg_of_addr addr in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.serve ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (addr, d)

let stop_server addr d =
  (match Client.with_connection addr Client.shutdown with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  Domain.join d

let fir_spec =
  match Jobs.default_tfr "FIR" with
  | Some (route, lgc, _) ->
      { P.bench = "FIR"; style = "openfpga"; route; lgc; seed = 1 }
  | None -> { P.bench = "FIR"; style = "openfpga"; route = []; lgc = []; seed = 1 }

let submit_ok t job =
  match Client.submit t job with
  | Ok (P.Result { output; _ }) -> output
  | Ok (P.Rejected { reason; _ }) -> Alcotest.failf "rejected: %s" reason
  | Ok (P.Failed { message; _ }) -> Alcotest.failf "failed: %s" message
  | Ok _ -> Alcotest.fail "unexpected response kind"
  | Error e -> Alcotest.failf "transport error: %s" e

let test_server_lock_byte_identical () =
  Pipeline.clear_cache ();
  let addr, d = start_server Server.default_config in
  let expected =
    match Jobs.lock_output fir_spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "direct lock failed: %s" (Diag.to_string e)
  in
  Client.with_connection addr (fun t ->
      (match Client.ping t with
      | Ok v -> Alcotest.(check int) "pong version" P.version v
      | Error e -> Alcotest.failf "ping failed: %s" e);
      let out = submit_ok t (P.Lock fir_spec) in
      Alcotest.(check string) "socket lock byte-identical to CLI" expected out;
      (* resubmit: warm from the in-memory cache, still identical *)
      let out2 = submit_ok t (P.Lock fir_spec) in
      Alcotest.(check string) "warm resubmit identical" expected out2;
      match Client.status t with
      | Ok i ->
          Alcotest.(check int) "jobs done" 2 i.P.jobs_done;
          Alcotest.(check int) "nothing queued" 0 i.P.queue_depth;
          Alcotest.(check bool) "running" true i.P.running;
          Alcotest.(check bool) "lock span recorded" true
            (List.exists (fun s -> s.P.kind = "lock") i.P.job_spans)
      | Error e -> Alcotest.failf "status failed: %s" e);
  stop_server addr d

let test_server_concurrent_clients () =
  Pipeline.clear_cache ();
  let addr, d = start_server Server.default_config in
  let expected =
    match Jobs.lock_output fir_spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "direct lock failed: %s" (Diag.to_string e)
  in
  let clients =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Client.with_connection addr (fun t -> submit_ok t (P.Lock fir_spec))))
  in
  List.iteri
    (fun i c ->
      Alcotest.(check string)
        (Printf.sprintf "client %d byte-identical" i)
        expected (Domain.join c))
    clients;
  stop_server addr d

(* raw-socket helpers for the breach / pipelining tests (the Client
   module is strictly one-request-one-response, which is exactly what
   these tests must violate) *)

let raw_connect = function
  | Server.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Server.Tcp _ -> Alcotest.fail "tests use unix sockets"

let raw_frame body =
  let n = String.length body in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* read responses until [want] frames or EOF; returns them in order *)
let read_responses fd want =
  let fr = J.framer () in
  let buf = Bytes.create 8192 in
  let got = ref [] in
  let eof = ref false in
  while List.length !got < want && not !eof do
    (match J.next fr with
    | `Frame body -> (
        match P.response_of_frame body with
        | Ok r -> got := r :: !got
        | Error e -> Alcotest.failf "bad response frame: %s" e)
    | `Error e -> Alcotest.failf "framer error: %s" e
    | `Await -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> eof := true
        | n -> J.feed fr buf 0 n))
  done;
  List.rev !got

let test_server_queue_full () =
  let addr, d =
    start_server (fun a ->
        { (Server.default_config a) with Server.queue_cap = 1 })
  in
  let fd = raw_connect addr in
  let submit id =
    P.request_frame
      (P.Submit { id; priority = 0; job = P.Fuzz { fz_seed = 3; cases = 1 } })
  in
  (* one write carrying three submits: the server drains all frames
     from the read before running any job, so with cap 1 the second
     and third must be rejected with the typed reason *)
  write_all fd (submit 1 ^ submit 2 ^ submit 3);
  let resps = read_responses fd 3 in
  let rejected =
    List.filter_map
      (function P.Rejected { id; reason } -> Some (id, reason) | _ -> None)
      resps
  in
  let results =
    List.filter_map
      (function P.Result { id; _ } -> Some id | _ -> None)
      resps
  in
  Alcotest.(check (list int)) "ids 2 and 3 rejected" [ 2; 3 ]
    (List.sort compare (List.map fst rejected));
  List.iter
    (fun (_, reason) ->
      Alcotest.(check bool) "typed queue_full reason" true
        (contains reason "queue_full depth=1 cap=1"))
    rejected;
  Alcotest.(check (list int)) "id 1 ran" [ 1 ] results;
  Unix.close fd;
  stop_server addr d

let test_server_breach_closes () =
  let addr, d =
    start_server (fun a ->
        { (Server.default_config a) with Server.max_frame = 256 })
  in
  (* malformed JSON inside a well-formed frame *)
  let fd = raw_connect addr in
  write_all fd (raw_frame "this is not json");
  (match read_responses fd 1 with
  | [ P.Failed { id = 0; message } ] ->
      Alcotest.(check bool) "carries a parse error" true (message <> "")
  | _ -> Alcotest.fail "expected Failed id=0");
  (* then the connection closes: EOF, not more responses *)
  Alcotest.(check (list bool)) "connection closed" []
    (List.map (fun _ -> true) (read_responses fd 1));
  Unix.close fd;
  (* an oversized frame header is a breach before any body arrives *)
  let fd = raw_connect addr in
  write_all fd (raw_frame (String.make 1024 'x'));
  (match read_responses fd 1 with
  | [ P.Failed { id = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected Failed id=0 for oversized frame");
  Alcotest.(check int) "closed after oversize" 0
    (List.length (read_responses fd 1));
  Unix.close fd;
  (* the daemon survives both breaches *)
  (match Client.with_connection addr Client.ping with
  | Ok v -> Alcotest.(check int) "still serving" P.version v
  | Error e -> Alcotest.failf "daemon died after breach: %s" e);
  stop_server addr d

(* metric scraping for the restart test *)
let metric_value text name =
  let v = ref None in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
             v :=
               int_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> ());
  match !v with
  | Some v -> v
  | None -> Alcotest.failf "metric %s not found" name

let test_server_restart_warm_from_disk () =
  let dir = temp_path ".store" in
  let with_store a =
    { (Server.default_config a) with Server.store_dir = Some dir }
  in
  Pipeline.clear_cache ();
  (* first daemon: cold run spills every pass product to disk *)
  let addr, d = start_server with_store in
  let out1, disk_hits0, misses0 =
    Client.with_connection addr (fun t ->
        let out = submit_ok t (P.Lock fir_spec) in
        match Client.metrics t with
        | Ok m ->
            Alcotest.(check bool) "cold run spilled to disk" true
              (metric_value m "shell_pipeline_cache_disk_writes" > 0);
            ( out,
              metric_value m "shell_pipeline_cache_disk_hits",
              metric_value m "shell_pipeline_cache_misses" )
        | Error e -> Alcotest.failf "metrics failed: %s" e)
  in
  stop_server addr d;
  (* simulate the restart: the in-memory cache is gone, the disk
     store (and the in-process Obs counters) survive *)
  Pipeline.clear_cache ();
  let addr, d = start_server with_store in
  Client.with_connection addr (fun t ->
      let out2 = submit_ok t (P.Lock fir_spec) in
      Alcotest.(check string) "restart output byte-identical" out1 out2;
      match Client.metrics t with
      | Ok m ->
          let disk_hits = metric_value m "shell_pipeline_cache_disk_hits" in
          let misses = metric_value m "shell_pipeline_cache_misses" in
          Alcotest.(check bool) "warm hits came from the disk store" true
            (disk_hits > disk_hits0);
          Alcotest.(check int) "no pass recomputed after restart" misses0 misses
      | Error e -> Alcotest.failf "metrics failed: %s" e);
  stop_server addr d;
  (* eviction contract: deleting the directory is the reset story *)
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  rm dir

let rm_rf p =
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists p then rm p

let test_store_gc () =
  let dir = temp_path ".gcstore" in
  let store = Store.create ~root:dir in
  let keys = List.init 5 (fun i -> Printf.sprintf "key%d" i) in
  List.iter (fun k -> Store.save store k (String.make 100 'x')) keys;
  Alcotest.(check int) "all stored" 5 (Store.entries store);
  (* under the cap: a scan-only no-op *)
  let rep = Store.gc store ~max_bytes:1000 in
  Alcotest.(check int) "scanned" 5 rep.Store.scanned;
  Alcotest.(check int) "scanned bytes" 500 rep.Store.scanned_bytes;
  Alcotest.(check int) "nothing deleted under cap" 0 rep.Store.deleted;
  Alcotest.(check int) "nothing reclaimed under cap" 0 rep.Store.reclaimed_bytes;
  (* stagger access times (the documented sharded-MD5 addressing gives
     us each blob's path) so the LRU order is fully determined *)
  let path_of k =
    let h = Digest.to_hex (Digest.string k) in
    Filename.concat
      (Filename.concat dir (String.sub h 0 2))
      (String.sub h 2 (String.length h - 2))
  in
  let ordered = List.sort (fun a b -> compare (path_of a) (path_of b)) keys in
  let now = Unix.time () in
  List.iteri
    (fun i k ->
      Unix.utimes (path_of k) (now -. 3600.0 +. (60.0 *. float_of_int i)) now)
    ordered;
  (* over the cap: evict oldest-first until back under *)
  let rep = Store.gc store ~max_bytes:300 in
  Alcotest.(check int) "deleted the two oldest" 2 rep.Store.deleted;
  Alcotest.(check int) "reclaimed their bytes" 200 rep.Store.reclaimed_bytes;
  Alcotest.(check int) "three blobs left" 3 (Store.entries store);
  (match ordered with
  | k0 :: k1 :: fresh ->
      Alcotest.(check bool) "oldest evicted" true (Store.load store k0 = None);
      Alcotest.(check bool) "next-oldest evicted" true
        (Store.load store k1 = None);
      List.iter
        (fun k ->
          Alcotest.(check bool)
            ("fresh blob survives: " ^ k)
            true
            (Store.load store k <> None))
        fresh
  | _ -> assert false);
  (* daemon startup prunes before attaching the store *)
  let capped a =
    {
      (Server.default_config a) with
      Server.store_dir = Some dir;
      cache_max_bytes = Some 0;
    }
  in
  let addr, d = start_server capped in
  (match Client.with_connection addr Client.ping with
  | Ok v -> Alcotest.(check int) "daemon up after startup gc" P.version v
  | Error e -> Alcotest.failf "ping failed: %s" e);
  stop_server addr d;
  Alcotest.(check int) "startup gc emptied the capped store" 0
    (Store.entries store);
  rm_rf dir

(* Job accounting rides the one Obs registry: the status counts, the
   per-kind spans and the Prometheus page move together, and no job
   leaves a root span behind for the daemon's lifetime. Counts are
   process-wide, so compare deltas. Five locks of one bench elaborate
   it once. *)
let test_server_job_telemetry () =
  Pipeline.clear_cache ();
  Jobs.clear_designs ();
  ignore (Obs.take_spans ());
  let jobs = 5 in
  let addr, d = start_server Server.default_config in
  Client.with_connection addr (fun t ->
      let status () =
        match Client.status t with
        | Ok i ->
            let lock_runs =
              List.fold_left
                (fun acc s -> if s.P.kind = "lock" then s.P.runs else acc)
                0 i.P.job_spans
            in
            (i.P.jobs_done, lock_runs, i.P.designs_elaborated)
        | Error e -> Alcotest.failf "status failed: %s" e
      in
      let metrics () =
        match Client.metrics t with
        | Ok m ->
            ( metric_value m "shell_serve_jobs_done",
              metric_value m "shell_serve_job_us_lock_count",
              metric_value m "shell_designs_elaborated" )
        | Error e -> Alcotest.failf "metrics failed: %s" e
      in
      let done0, runs0, elab0 = status ()
      and mdone0, mruns0, melab0 = metrics () in
      for _ = 1 to jobs do
        ignore (submit_ok t (P.Lock fir_spec))
      done;
      Alcotest.(check (list string))
        "no span roots retained" []
        (List.map (fun (s : Obs.span) -> s.Obs.name) (Obs.spans ()));
      let done1, runs1, elab1 = status ()
      and mdone1, mruns1, melab1 = metrics () in
      Alcotest.(check int) "status jobs done" jobs (done1 - done0);
      Alcotest.(check int) "status lock runs" jobs (runs1 - runs0);
      Alcotest.(check int) "status designs elaborated" 1 (elab1 - elab0);
      Alcotest.(check int) "metrics jobs done" jobs (mdone1 - mdone0);
      Alcotest.(check int) "metrics lock histogram count" jobs
        (mruns1 - mruns0);
      Alcotest.(check int) "metrics designs elaborated" 1 (melab1 - melab0));
  stop_server addr d;
  Alcotest.(check int) "no span roots after shutdown" 0
    (List.length (Obs.spans ()))

(* The daemon gets each job's span tree back from Obs and touches no
   other root, so a root recorded by another domain of the process
   outlives the daemon's jobs. *)
let test_server_keeps_foreign_roots () =
  Pipeline.clear_cache ();
  ignore (Obs.take_spans ());
  let addr, d = start_server Server.default_config in
  Obs.set_enabled true;
  Obs.with_span "test.foreign" ignore;
  Client.with_connection addr (fun t ->
      ignore (submit_ok t (P.Lock fir_spec));
      ignore (submit_ok t (P.Lock fir_spec)));
  stop_server addr d;
  let roots = List.map (fun (s : Obs.span) -> s.Obs.name) (Obs.spans ()) in
  ignore (Obs.take_spans ());
  Alcotest.(check (list string))
    "the test's root survives two jobs" [ "test.foreign" ] roots

let test_address_parsing () =
  (match Server.address_of_string "/tmp/x.sock" with
  | Ok (Server.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix path");
  (match Server.address_of_string "localhost:9001" with
  | Ok (Server.Tcp ("localhost", 9001)) -> ()
  | _ -> Alcotest.fail "host:port");
  (match Server.address_of_string ":9001" with
  | Ok (Server.Tcp ("127.0.0.1", 9001)) -> ()
  | _ -> Alcotest.fail "empty host defaults to loopback");
  (match Server.address_of_string "relative.sock" with
  | Ok (Server.Unix_sock "relative.sock") -> ()
  | _ -> Alcotest.fail "no colon means unix path");
  (match Server.address_of_string "host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad port accepted");
  match Server.address_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty address accepted"

let suite =
  [
    ("framer split feeds", `Quick, test_framer_split_feeds);
    ("framer oversized sticky", `Quick, test_framer_oversized_sticky);
    ("protocol round-trip", `Quick, test_protocol_roundtrip);
    ("protocol rejects", `Quick, test_protocol_rejects);
    ("admission order", `Quick, test_admission_order);
    ("admission queue full", `Quick, test_admission_queue_full);
    ("address parsing", `Quick, test_address_parsing);
    ("jobs lint subject matches the pass", `Quick, test_lint_subject_of_result);
    ("jobs lint subject of unknown bench", `Quick, test_lint_subject_of_bench);
    ("jobs share one design", `Quick, test_jobs_share_design);
    ("store gc size cap", `Quick, test_store_gc);
    ("server lock byte-identical", `Quick, test_server_lock_byte_identical);
    ("server concurrent clients", `Quick, test_server_concurrent_clients);
    ("server queue full", `Quick, test_server_queue_full);
    ("server breach closes", `Quick, test_server_breach_closes);
    ("server restart warm from disk", `Quick,
     test_server_restart_warm_from_disk);
    ("server job telemetry", `Quick, test_server_job_telemetry);
    ("server keeps foreign roots", `Quick, test_server_keeps_foreign_roots);
  ]
