module J = Shell_util.Jsonw

let version = 1

type lock_spec = {
  bench : string;
  style : string;
  route : string list;
  lgc : string list;
  seed : int;
}

type attack_spec = {
  target : lock_spec;
  attack : string;
  dips : int;
  conflicts : int;
  seconds : float;
  vectors : int;
}

type battery_spec = {
  benches : string list;
  schemes : string list;
  attacks : string list;
  bt_seed : int;
  bt_dips : int;
  bt_conflicts : int;
  bt_seconds : float;
  bt_vectors : int;
}

type fuzz_spec = { fz_seed : int; cases : int }

type lint_spec = {
  lint_benches : string list;
  locked : bool;
  lint_style : string;
  lint_seed : int;
}

type job =
  | Lock of lock_spec
  | Attack of attack_spec
  | Battery of battery_spec
  | Fuzz of fuzz_spec
  | Lint of lint_spec

let job_kind = function
  | Lock _ -> "lock"
  | Attack _ -> "attack"
  | Battery _ -> "battery"
  | Fuzz _ -> "fuzz"
  | Lint _ -> "lint"

(* every [job_kind], sorted *)
let job_kinds = [ "attack"; "battery"; "fuzz"; "lint"; "lock" ]

type request =
  | Submit of { id : int; priority : int; job : job }
  | Status of { id : int }
  | Metrics of { id : int }
  | Ping of { id : int }
  | Shutdown of { id : int }

type job_span = { kind : string; runs : int; total_s : float }

type status_info = {
  queue_depth : int;
  queue_cap : int;
  running : bool;
  jobs_done : int;
  jobs_failed : int;
  jobs_rejected : int;
  cache_hits : int;
  cache_misses : int;
  designs_elaborated : int;
  uptime_s : float;
  job_spans : job_span list;
}

type response =
  | Result of { id : int; output : string }
  | Rejected of { id : int; reason : string }
  | Failed of { id : int; message : string }
  | Status_r of { id : int; info : status_info }
  | Metrics_r of { id : int; text : string }
  | Pong of { id : int; server_version : int }

(* ---------------- encoding ---------------- *)

let strs l = J.Arr (List.map (fun s -> J.Str s) l)

let lock_spec_json (s : lock_spec) =
  J.Obj
    [
      ("bench", J.Str s.bench);
      ("style", J.Str s.style);
      ("route", strs s.route);
      ("lgc", strs s.lgc);
      ("seed", J.Int s.seed);
    ]

let job_json = function
  | Lock s -> J.Obj [ ("lock", lock_spec_json s) ]
  | Attack a ->
      J.Obj
        [
          ( "attack",
            J.Obj
              [
                ("target", lock_spec_json a.target);
                ("name", J.Str a.attack);
                ("dips", J.Int a.dips);
                ("conflicts", J.Int a.conflicts);
                ("seconds", J.float ~dec:3 a.seconds);
                ("vectors", J.Int a.vectors);
              ] );
        ]
  | Battery b ->
      J.Obj
        [
          ( "battery",
            J.Obj
              [
                ("benches", strs b.benches);
                ("schemes", strs b.schemes);
                ("attacks", strs b.attacks);
                ("seed", J.Int b.bt_seed);
                ("dips", J.Int b.bt_dips);
                ("conflicts", J.Int b.bt_conflicts);
                ("seconds", J.float ~dec:3 b.bt_seconds);
                ("vectors", J.Int b.bt_vectors);
              ] );
        ]
  | Fuzz f ->
      J.Obj
        [
          ( "fuzz",
            J.Obj [ ("seed", J.Int f.fz_seed); ("cases", J.Int f.cases) ] );
        ]
  | Lint l ->
      J.Obj
        [
          ( "lint",
            J.Obj
              [
                ("benches", strs l.lint_benches);
                ("locked", J.Bool l.locked);
                ("style", J.Str l.lint_style);
                ("seed", J.Int l.lint_seed);
              ] );
        ]

let msg ty id fields =
  J.Obj (("v", J.Int version) :: ("type", J.Str ty) :: ("id", J.Int id) :: fields)

let request_json = function
  | Submit { id; priority; job } ->
      msg "submit" id [ ("priority", J.Int priority); ("job", job_json job) ]
  | Status { id } -> msg "status" id []
  | Metrics { id } -> msg "metrics" id []
  | Ping { id } -> msg "ping" id []
  | Shutdown { id } -> msg "shutdown" id []

let status_info_json (i : status_info) =
  J.Obj
    [
      ("queue_depth", J.Int i.queue_depth);
      ("queue_cap", J.Int i.queue_cap);
      ("running", J.Bool i.running);
      ("jobs_done", J.Int i.jobs_done);
      ("jobs_failed", J.Int i.jobs_failed);
      ("jobs_rejected", J.Int i.jobs_rejected);
      ("cache_hits", J.Int i.cache_hits);
      ("cache_misses", J.Int i.cache_misses);
      ("designs_elaborated", J.Int i.designs_elaborated);
      ("uptime_s", J.float ~dec:3 i.uptime_s);
      ( "job_spans",
        J.Arr
          (List.map
             (fun sp ->
               J.Obj
                 [
                   ("kind", J.Str sp.kind);
                   ("runs", J.Int sp.runs);
                   ("total_s", J.float ~dec:3 sp.total_s);
                 ])
             i.job_spans) );
    ]

let response_json = function
  | Result { id; output } -> msg "result" id [ ("output", J.Str output) ]
  | Rejected { id; reason } -> msg "rejected" id [ ("reason", J.Str reason) ]
  | Failed { id; message } -> msg "failed" id [ ("message", J.Str message) ]
  | Status_r { id; info } -> msg "status" id [ ("info", status_info_json info) ]
  | Metrics_r { id; text } -> msg "metrics" id [ ("text", J.Str text) ]
  | Pong { id; server_version } ->
      msg "pong" id [ ("server_version", J.Int server_version) ]

(* ---------------- decoding ---------------- *)

let ( let* ) = Result.bind

let field name = function
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error "expected an object"

let as_int name = function
  | J.Int v -> Ok v
  | J.Num s -> (
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "field %S: not an integer" name))
  | _ -> Error (Printf.sprintf "field %S: expected an integer" name)

let as_float name = function
  | J.Int v -> Ok (float_of_int v)
  | J.Num s -> (
      match float_of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "field %S: not a number" name))
  | _ -> Error (Printf.sprintf "field %S: expected a number" name)

let as_str name = function
  | J.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected a string" name)

let as_bool name = function
  | J.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S: expected a bool" name)

let as_strs name = function
  | J.Arr items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.Str s :: tl -> go (s :: acc) tl
        | _ -> Error (Printf.sprintf "field %S: expected strings" name)
      in
      go [] items
  | _ -> Error (Printf.sprintf "field %S: expected an array" name)

let int_field name j = let* v = field name j in as_int name v
let float_field name j = let* v = field name j in as_float name v
let str_field name j = let* v = field name j in as_str name v
let bool_field name j = let* v = field name j in as_bool name v
let strs_field name j = let* v = field name j in as_strs name v

let lock_spec_of_json j =
  let* bench = str_field "bench" j in
  let* style = str_field "style" j in
  let* route = strs_field "route" j in
  let* lgc = strs_field "lgc" j in
  let* seed = int_field "seed" j in
  Ok { bench; style; route; lgc; seed }

let job_of_json j =
  match j with
  | J.Obj [ (kind, body) ] -> (
      match kind with
      | "lock" ->
          let* s = lock_spec_of_json body in
          Ok (Lock s)
      | "attack" ->
          let* t = field "target" body in
          let* target = lock_spec_of_json t in
          let* attack = str_field "name" body in
          let* dips = int_field "dips" body in
          let* conflicts = int_field "conflicts" body in
          let* seconds = float_field "seconds" body in
          let* vectors = int_field "vectors" body in
          Ok (Attack { target; attack; dips; conflicts; seconds; vectors })
      | "battery" ->
          let* benches = strs_field "benches" body in
          let* schemes = strs_field "schemes" body in
          let* attacks = strs_field "attacks" body in
          let* bt_seed = int_field "seed" body in
          let* bt_dips = int_field "dips" body in
          let* bt_conflicts = int_field "conflicts" body in
          let* bt_seconds = float_field "seconds" body in
          let* bt_vectors = int_field "vectors" body in
          Ok
            (Battery
               {
                 benches;
                 schemes;
                 attacks;
                 bt_seed;
                 bt_dips;
                 bt_conflicts;
                 bt_seconds;
                 bt_vectors;
               })
      | "fuzz" ->
          let* fz_seed = int_field "seed" body in
          let* cases = int_field "cases" body in
          Ok (Fuzz { fz_seed; cases })
      | "lint" ->
          let* lint_benches = strs_field "benches" body in
          let* locked = bool_field "locked" body in
          let* lint_style = str_field "style" body in
          let* lint_seed = int_field "seed" body in
          Ok (Lint { lint_benches; locked; lint_style; lint_seed })
      | k -> Error (Printf.sprintf "unknown job kind %S" k))
  | _ -> Error "job: expected a single-field object"

(* Both decoders reject foreign protocol versions up front: a v2 peer
   gets one clean error instead of a cascade of missing-field noise. *)
let check_version j =
  let* v = int_field "v" j in
  if v = version then Ok ()
  else Error (Printf.sprintf "protocol version %d (this side speaks %d)" v version)

let request_of_json j =
  let* () = check_version j in
  let* ty = str_field "type" j in
  let* id = int_field "id" j in
  match ty with
  | "submit" ->
      let* priority = int_field "priority" j in
      let* jb = field "job" j in
      let* job = job_of_json jb in
      Ok (Submit { id; priority; job })
  | "status" -> Ok (Status { id })
  | "metrics" -> Ok (Metrics { id })
  | "ping" -> Ok (Ping { id })
  | "shutdown" -> Ok (Shutdown { id })
  | ty -> Error (Printf.sprintf "unknown request type %S" ty)

let status_info_of_json j =
  let* queue_depth = int_field "queue_depth" j in
  let* queue_cap = int_field "queue_cap" j in
  let* running = bool_field "running" j in
  let* jobs_done = int_field "jobs_done" j in
  let* jobs_failed = int_field "jobs_failed" j in
  let* jobs_rejected = int_field "jobs_rejected" j in
  let* cache_hits = int_field "cache_hits" j in
  let* cache_misses = int_field "cache_misses" j in
  let* designs_elaborated = int_field "designs_elaborated" j in
  let* uptime_s = float_field "uptime_s" j in
  let* spans = field "job_spans" j in
  let* job_spans =
    match spans with
    | J.Arr items ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | it :: tl ->
              let* kind = str_field "kind" it in
              let* runs = int_field "runs" it in
              let* total_s = float_field "total_s" it in
              go ({ kind; runs; total_s } :: acc) tl
        in
        go [] items
    | _ -> Error "field \"job_spans\": expected an array"
  in
  Ok
    {
      queue_depth;
      queue_cap;
      running;
      jobs_done;
      jobs_failed;
      jobs_rejected;
      cache_hits;
      cache_misses;
      designs_elaborated;
      uptime_s;
      job_spans;
    }

let response_of_json j =
  let* () = check_version j in
  let* ty = str_field "type" j in
  let* id = int_field "id" j in
  match ty with
  | "result" ->
      let* output = str_field "output" j in
      Ok (Result { id; output })
  | "rejected" ->
      let* reason = str_field "reason" j in
      Ok (Rejected { id; reason })
  | "failed" ->
      let* message = str_field "message" j in
      Ok (Failed { id; message })
  | "status" ->
      let* inf = field "info" j in
      let* info = status_info_of_json inf in
      Ok (Status_r { id; info })
  | "metrics" ->
      let* text = str_field "text" j in
      Ok (Metrics_r { id; text })
  | "pong" ->
      let* server_version = int_field "server_version" j in
      Ok (Pong { id; server_version })
  | ty -> Error (Printf.sprintf "unknown response type %S" ty)

let request_of_frame body =
  let* j = J.of_string body in
  request_of_json j

let response_of_frame body =
  let* j = J.of_string body in
  response_of_json j

let request_frame ?max_frame r = J.frame ?max_frame (request_json r)
let response_frame ?max_frame r = J.frame ?max_frame (response_json r)
