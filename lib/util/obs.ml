(* Process-wide metrics registry + span recorder.

   Sharding: each domain lazily claims a shard index; a metric's cells
   are per-shard atomics, so recording never contends and merging is a
   sum — order-independent, which is what makes stable snapshots
   byte-identical across job counts. Shard indices wrap at
   [max_shards]; a wrap only means two domains share (still correct)
   atomic cells. *)

let on_flag = Atomic.make false
let enabled () = Atomic.get on_flag
let set_enabled b = Atomic.set on_flag b

let max_shards = 128
let next_shard = Atomic.make 0

let shard_key =
  Domain.DLS.new_key (fun () ->
      Atomic.fetch_and_add next_shard 1 land (max_shards - 1))

let shard () = Domain.DLS.get shard_key

(* ---------------- registry ---------------- *)

let nbuckets = 32

type kind = K_counter | K_gauge | K_histogram

type metric = {
  name : string;
  help : string;
  stable : bool;
  kind : kind;
  cells : int Atomic.t array;
      (* counters/gauges: one cell per shard (gauges use cell 0 only);
         histograms: per shard, [nbuckets] bucket cells + 1 sum cell *)
}

let registry : metric list ref = ref [] (* newest first *)
let reg_mutex = Mutex.create ()

let register name help stable kind =
  let ncells =
    match kind with
    | K_counter | K_gauge -> max_shards
    | K_histogram -> max_shards * (nbuckets + 1)
  in
  let m =
    { name; help; stable; kind; cells = Array.init ncells (fun _ -> Atomic.make 0) }
  in
  Mutex.lock reg_mutex;
  if List.exists (fun m' -> m'.name = name) !registry then begin
    Mutex.unlock reg_mutex;
    invalid_arg ("Obs: duplicate metric " ^ name)
  end;
  registry := m :: !registry;
  Mutex.unlock reg_mutex;
  m

type counter = metric
type gauge = metric
type histogram = metric

let counter ?(stable = false) ~help name = register name help stable K_counter

let add m n =
  if Atomic.get on_flag then
    ignore (Atomic.fetch_and_add m.cells.(shard ()) n)

let incr m = add m 1

let gauge ?(stable = false) ~help name = register name help stable K_gauge
let set m v = if Atomic.get on_flag then Atomic.set m.cells.(0) v

let histogram ?(stable = false) ~help name =
  register name help stable K_histogram

(* bucket 0: v <= 1; bucket i: 2^(i-1) < v <= 2^i; top bucket absorbs
   the overflow *)
let bucket_of v =
  if v <= 1 then 0
  else
    let b =
      (* index of the highest set bit of (v - 1), plus one *)
      let x = v - 1 in
      let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + 1) in
      go x 0
    in
    min b (nbuckets - 1)

let observe m v =
  if Atomic.get on_flag then begin
    let base = shard () * (nbuckets + 1) in
    ignore (Atomic.fetch_and_add m.cells.(base + bucket_of v) 1);
    ignore (Atomic.fetch_and_add m.cells.(base + nbuckets) v)
  end

let observe_us m seconds =
  if Atomic.get on_flag then observe m (int_of_float (1e6 *. seconds))

(* ---------------- snapshots ---------------- *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { buckets : int array; count : int; sum : int }

type sample = { name : string; help : string; stable : bool; value : value }

let sample_of (m : metric) =
  let value =
    match m.kind with
    | K_counter ->
        let total = ref 0 in
        Array.iter (fun c -> total := !total + Atomic.get c) m.cells;
        Counter !total
    | K_gauge -> Gauge (Atomic.get m.cells.(0))
    | K_histogram ->
        let buckets = Array.make nbuckets 0 in
        let sum = ref 0 in
        for s = 0 to max_shards - 1 do
          let base = s * (nbuckets + 1) in
          for b = 0 to nbuckets - 1 do
            buckets.(b) <- buckets.(b) + Atomic.get m.cells.(base + b)
          done;
          sum := !sum + Atomic.get m.cells.(base + nbuckets)
        done;
        let count = Array.fold_left ( + ) 0 buckets in
        Histogram { buckets; count; sum = !sum }
  in
  { name = m.name; help = m.help; stable = m.stable; value }

let snapshot () =
  Mutex.lock reg_mutex;
  let ms = !registry in
  Mutex.unlock reg_mutex;
  List.rev_map sample_of ms

let keep stable_only s = (not stable_only) || s.stable

let json ?(stable_only = false) samples =
  let metric s =
    let base =
      [
        ("name", Jsonw.Str s.name);
        ("help", Jsonw.Str s.help);
        ("stable", Jsonw.Bool s.stable);
      ]
    in
    match s.value with
    | Counter v -> Jsonw.Obj (base @ [ ("type", Str "counter"); ("value", Int v) ])
    | Gauge v -> Jsonw.Obj (base @ [ ("type", Str "gauge"); ("value", Int v) ])
    | Histogram { buckets; count; sum } ->
        Jsonw.Obj
          (base
          @ [
              ("type", Str "histogram");
              ("count", Int count);
              ("sum", Int sum);
              ( "buckets",
                Arr (Array.to_list (Array.map (fun b -> Jsonw.Int b) buckets))
              );
            ])
  in
  Jsonw.Obj
    [
      ( "metrics",
        Arr (List.filter_map
               (fun s -> if keep stable_only s then Some (metric s) else None)
               samples) );
    ]

let to_json ?stable_only samples =
  Jsonw.to_string ~indent:2 (json ?stable_only samples)

(* Prometheus metric names admit only [a-zA-Z0-9_:]; dotted names
   (span-style "pnr.attempt") and anything else hostile map to '_'.
   The "shell_" prefix keeps a leading digit legal. *)
let prometheus_name s =
  "shell_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      s

(* HELP lines escape backslash and newline per the text exposition
   format; anything else passes through verbatim. *)
let prometheus_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_prometheus ?(stable_only = false) samples =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      if keep stable_only s then begin
        let n = prometheus_name s.name in
        Printf.bprintf buf "# HELP %s %s\n" n (prometheus_help s.help);
        match s.value with
        | Counter v ->
            Printf.bprintf buf "# TYPE %s counter\n%s %d\n" n n v
        | Gauge v -> Printf.bprintf buf "# TYPE %s gauge\n%s %d\n" n n v
        | Histogram { buckets; count; sum } ->
            Printf.bprintf buf "# TYPE %s histogram\n" n;
            let cum = ref 0 in
            Array.iteri
              (fun i b ->
                cum := !cum + b;
                if i < nbuckets - 1 then
                  Printf.bprintf buf "%s_bucket{le=\"%d\"} %d\n" n (1 lsl i)
                    !cum)
              buckets;
            Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" n count;
            Printf.bprintf buf "%s_sum %d\n%s_count %d\n" n sum n count
      end)
    samples;
  Buffer.contents buf

(* The diffable record form: stable metrics flattened to sorted
   (name, value) pairs. Histograms contribute ".count"/".sum" keys so
   the whole thing is integer-exact. [extra] opts individual metrics in
   by name even when they registered unstable — bench targets use this
   for counters (solver work, pass-cache traffic) that are
   deterministic under the target's capped budgets even though they
   are racy in general workloads. *)
let diffable_counters ?(extra = []) samples =
  List.concat_map
    (fun s ->
      if s.stable || List.mem s.name extra then
        match s.value with
        | Counter v | Gauge v -> [ (s.name, v) ]
        | Histogram { count; sum; _ } ->
            [ (s.name ^ ".count", count); (s.name ^ ".sum", sum) ]
      else [])
    samples
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stable_from_env () =
  match Sys.getenv_opt "SHELL_METRICS_STABLE" with
  | Some ("1" | "true") -> true
  | _ -> false

let write_file path =
  let stable_only = stable_from_env () in
  let samples = snapshot () in
  let text =
    if Filename.check_suffix path ".prom" then
      to_prometheus ~stable_only samples
    else to_json ~stable_only samples ^ "\n"
  in
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* ---------------- spans ---------------- *)

type span = {
  name : string;
  seconds : float;
  counters : (string * int) list;
  children : span list;
}

(* open spans accumulate children/counters newest-first; [freeze]
   restores recording order for the public view *)
type open_span = {
  sname : string;
  mutable acc : (string * int) list;
  mutable kids : span list;
}

(* [parent] is a borrowed open span of {e another} stack: a pool worker
   running a task on behalf of a caller whose span is still open. Spans
   and counters completing with an empty local stack attach there (under
   [foreign_mutex], since several workers may share one parent) instead
   of becoming roots — so a fan-out's span tree has the same shape at
   any job count. *)
type stack = { mutable stack : open_span list; mutable parent : open_span option }

let stack_key = Domain.DLS.new_key (fun () -> { stack = []; parent = None })

let roots : span list ref = ref [] (* newest first *)
let roots_mutex = Mutex.create ()
let foreign_mutex = Mutex.create ()

let freeze o seconds =
  {
    name = o.sname;
    seconds;
    counters = List.rev o.acc;
    children = List.rev o.kids;
  }

let attach_foreign_kid p sp =
  Mutex.lock foreign_mutex;
  p.kids <- sp :: p.kids;
  Mutex.unlock foreign_mutex

let with_span name f =
  if not (Atomic.get on_flag) then f ()
  else begin
    let st = Domain.DLS.get stack_key in
    let o = { sname = name; acc = []; kids = [] } in
    st.stack <- o :: st.stack;
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let sp = freeze o (Clock.now () -. t0) in
        (match st.stack with
        | top :: rest when top == o -> st.stack <- rest
        | _ -> () (* unbalanced: leave the stack alone *));
        match st.stack with
        | parent :: _ -> parent.kids <- sp :: parent.kids
        | [] -> (
            match st.parent with
            | Some p -> attach_foreign_kid p sp
            | None ->
                Mutex.lock roots_mutex;
                roots := sp :: !roots;
                Mutex.unlock roots_mutex))
      f
  end

let span_add name v =
  if Atomic.get on_flag then
    let st = Domain.DLS.get stack_key in
    match st.stack with
    | o :: _ -> o.acc <- (name, v) :: o.acc
    | [] -> (
        match st.parent with
        | Some p ->
            Mutex.lock foreign_mutex;
            p.acc <- (name, v) :: p.acc;
            Mutex.unlock foreign_mutex
        | None -> ())

(* ---------------- cross-domain span context ---------------- *)

type context = open_span option

let context () =
  if not (Atomic.get on_flag) then None
  else
    let st = Domain.DLS.get stack_key in
    match st.stack with o :: _ -> Some o | [] -> st.parent

let context_active = Option.is_some

let with_context ctx f =
  match ctx with
  | None -> f ()
  | Some _ ->
      let st = Domain.DLS.get stack_key in
      let saved_stack = st.stack and saved_parent = st.parent in
      st.stack <- [];
      st.parent <- ctx;
      Fun.protect
        ~finally:(fun () ->
          st.stack <- saved_stack;
          st.parent <- saved_parent)
        f

let spans () =
  Mutex.lock roots_mutex;
  let r = !roots in
  Mutex.unlock roots_mutex;
  List.rev r

let take_spans () =
  Mutex.lock roots_mutex;
  let r = !roots in
  roots := [];
  Mutex.unlock roots_mutex;
  List.rev r

let pp_spans ppf spans =
  let rec go depth sp =
    Format.fprintf ppf "%s%-*s %8.1f ms"
      (String.make (2 * depth) ' ')
      (max 1 (24 - (2 * depth)))
      sp.name (1000.0 *. sp.seconds);
    List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%d" k v) sp.counters;
    Format.pp_print_newline ppf ();
    List.iter (go (depth + 1)) sp.children
  in
  List.iter (go 0) spans

(* Structure only — never elapsed times: "path" keys count invocations
   of each slash-joined span path, "path#counter" keys sum the
   [span_add] values recorded there. Sorted and merged, so the result
   is independent of completion order (and hence of the job count,
   given deterministic work). *)
let span_aggregate spans =
  let tbl = Hashtbl.create 64 in
  let bump k v =
    Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let rec go prefix sp =
    let path = if prefix = "" then sp.name else prefix ^ "/" ^ sp.name in
    bump path 1;
    List.iter (fun (k, v) -> bump (path ^ "#" ^ k) v) sp.counters;
    List.iter (go path) sp.children
  in
  List.iter (go "") spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () =
  Mutex.lock reg_mutex;
  let ms = !registry in
  Mutex.unlock reg_mutex;
  List.iter (fun m -> Array.iter (fun c -> Atomic.set c 0) m.cells) ms;
  ignore (take_spans ())

(* ---------------- env gates ---------------- *)

let () =
  (match Sys.getenv_opt "SHELL_OBS" with
  | Some ("1" | "true") -> set_enabled true
  | _ -> ());
  match Sys.getenv_opt "SHELL_METRICS" with
  | Some path when path <> "" ->
      set_enabled true;
      at_exit (fun () -> try write_file path with Sys_error _ -> ())
  | _ -> ()
