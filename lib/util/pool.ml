(* A process-wide pool of worker domains sharing one batch at a time.
   Tasks are claimed from a single cursor under the pool mutex (work
   sharing); each claimed index runs outside the lock. The submitting
   domain participates in its own batch, so [jobs = n] means n domains
   of compute including the caller. *)

type batch = {
  run_task : int -> unit;  (* never raises: wrapper captures exceptions *)
  total : int;
  mutable next : int;  (* next unclaimed index *)
  mutable unfinished : int;  (* claimed-or-not tasks still incomplete *)
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (* a batch arrived / shutdown *)
  idle : Condition.t;  (* a batch finished *)
  mutable current : batch option;
  mutable workers : unit Domain.t list;
  mutable shutting_down : bool;
}

let pool =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    current = None;
    workers = [];
    shutting_down = false;
  }

let inside_key = Domain.DLS.new_key (fun () -> false)
let inside_task () = Domain.DLS.get inside_key

(* Telemetry. Tasks and batches are counted at the [mapi] choke point
   — before the sequential/parallel path split — and callers with
   their own sequential fallback (e.g. Centrality.betweenness below
   nsrc=4 or at jobs=1) report the batches they run inline through
   [count_batch], so the totals are a pure function of the work
   submitted and register as stable. The queue-wait / latency
   histograms and the busy-time counter only see the parallel path
   and carry wall-clock values, so they stay unstable. *)
let m_tasks =
  Obs.counter ~stable:true ~help:"tasks submitted to the domain pool"
    "pool_tasks"

let m_batches =
  Obs.counter ~stable:true ~help:"batches submitted to the domain pool"
    "pool_batches"

let h_queue_wait_us =
  Obs.histogram ~help:"microseconds between batch submission and task start"
    "pool_queue_wait_us"

let h_task_us =
  Obs.histogram ~help:"task execution microseconds" "pool_task_us"

let m_busy_us =
  Obs.counter
    ~help:"summed task execution microseconds across all pool domains"
    "pool_busy_us"

let max_jobs = 64

let parse_env () =
  match Sys.getenv_opt "SHELL_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> Some v
      | _ -> None)
  | None -> None

let default =
  ref
    (let v =
       match parse_env () with
       | Some v -> v
       | None -> Domain.recommended_domain_count ()
     in
     max 1 (min max_jobs v))

let default_jobs () = !default
let set_default_jobs n = default := max 1 (min max_jobs n)

(* Claim-and-run loop shared by workers and the submitter. Expects the
   mutex held; returns with it held. *)
let drain b =
  while b.next < b.total do
    let i = b.next in
    b.next <- i + 1;
    Mutex.unlock pool.mutex;
    b.run_task i;
    Mutex.lock pool.mutex;
    b.unfinished <- b.unfinished - 1;
    if b.unfinished = 0 then begin
      pool.current <- None;
      Condition.broadcast pool.idle
    end
  done

let worker () =
  Domain.DLS.set inside_key true;
  Mutex.lock pool.mutex;
  let rec loop () =
    if pool.shutting_down then Mutex.unlock pool.mutex
    else begin
      (match pool.current with
      | Some b when b.next < b.total -> drain b
      | _ -> Condition.wait pool.work pool.mutex);
      loop ()
    end
  in
  loop ()

let shutdown () =
  Mutex.lock pool.mutex;
  pool.shutting_down <- true;
  Condition.broadcast pool.work;
  let ws = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join ws

(* Expects the mutex held. Worker domains live until process exit. *)
let ensure_workers n =
  if List.length pool.workers = 0 && n > 0 then at_exit shutdown;
  while List.length pool.workers < n do
    pool.workers <- Domain.spawn worker :: pool.workers
  done

let run_batch ~jobs ~total run_task =
  if total <= 0 then invalid_arg "Pool.run_batch: empty batch";
  let run_task =
    if not (Obs.enabled ()) then run_task
    else begin
      let submitted = Clock.now () in
      fun i ->
        let t0 = Clock.now () in
        Obs.observe_us h_queue_wait_us (t0 -. submitted);
        run_task i;
        let dt = Clock.now () -. t0 in
        Obs.observe_us h_task_us dt;
        Obs.add m_busy_us (int_of_float (1e6 *. dt))
    end
  in
  Mutex.lock pool.mutex;
  ensure_workers (jobs - 1);
  while pool.current <> None do
    Condition.wait pool.idle pool.mutex
  done;
  let b = { run_task; total; next = 0; unfinished = total } in
  pool.current <- Some b;
  Condition.broadcast pool.work;
  Domain.DLS.set inside_key true;
  drain b;
  Domain.DLS.set inside_key false;
  while b.unfinished > 0 do
    Condition.wait pool.idle pool.mutex
  done;
  Mutex.unlock pool.mutex

let resolve jobs =
  match jobs with Some j -> max 1 (min max_jobs j) | None -> default_jobs ()

(* Sequential reference semantics: run in index order, raise at the
   first failing task. *)
let seq_mapi f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0 arr.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- f i arr.(i)
    done;
    out
  end

(* Counted on every path (sequential, parallel, nested) so the totals
   match at any job count. *)
let count_batch n =
  if n > 0 then begin
    Obs.incr m_batches;
    Obs.add m_tasks n
  end

let mapi ?jobs f arr =
  let n = Array.length arr in
  count_batch n;
  let jobs = resolve jobs in
  (* Lend the caller's open span to every task — wrapped before the
     path split so the span tree has the same shape on the sequential
     bypass as across worker domains. *)
  let f =
    let ctx = Obs.context () in
    if Obs.context_active ctx then
      fun i x -> Obs.with_context ctx (fun () -> f i x)
    else f
  in
  if n <= 1 || jobs <= 1 || inside_task () then seq_mapi f arr
  else begin
    let out = Array.make n None in
    let exns = Array.make n None in
    let run_task i =
      match f i arr.(i) with
      | v -> out.(i) <- Some v
      | exception e -> exns.(i) <- Some e
    in
    run_batch ~jobs:(min jobs n) ~total:n run_task;
    Array.iter (function Some e -> raise e | None -> ()) exns;
    Array.map (function Some v -> v | None -> assert false) out
  end

let map ?jobs f arr = mapi ?jobs (fun _ x -> f x) arr

let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))

let task_rng ~seed i =
  (* decorrelate nearby (seed, i) pairs before seeding splitmix *)
  let r = Rng.create (seed lxor (0x9E3779B9 * (i + 1))) in
  Rng.split r
