(* A process-wide pool of worker domains shared by every active batch.
   Tasks are claimed one index at a time under the pool mutex (work
   sharing); each claimed index runs outside the lock. Batches are kept
   newest first:

   - an idle worker claims from the newest batch that still has an
     unclaimed task, so a batch submitted from inside a task (a nested
     batch) gets the domains its siblings leave idle;
   - the submitting domain drains its own batch, so [jobs = n] means n
     domains of compute including the caller; then, while that batch's
     last tasks finish elsewhere, it helps batches newer than its own.

   A submitter waits only on tasks already running, and helps only newer
   batches, so no chain of waits can close into a cycle. *)

type batch = {
  run_task : int -> unit;  (* never raises: wrapper captures exceptions *)
  total : int;
  mutable next : int;  (* next unclaimed index *)
  mutable unfinished : int;  (* claimed-or-not tasks still incomplete *)
}

type t = {
  mutex : Mutex.t;
  changed : Condition.t;  (* a batch arrived or finished / shutdown *)
  mutable active : batch list;  (* unfinished batches, newest first *)
  mutable workers : unit Domain.t list;
  mutable shutting_down : bool;
}

let pool =
  {
    mutex = Mutex.create ();
    changed = Condition.create ();
    active = [];
    workers = [];
    shutting_down = false;
  }

(* Telemetry. Tasks and batches are counted at the [mapi] choke point
   — before the sequential/parallel path split — so the totals are a
   pure function of the work submitted and register as stable. The
   queue-wait / latency histograms and the busy-time counter only see
   the parallel path and carry wall-clock values, so they stay
   unstable. *)
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

(* Claim the next task of [b] and run it. Expects the mutex held and
   [b.next < b.total]; returns with it held. *)
let run_one b =
  let i = b.next in
  b.next <- i + 1;
  Mutex.unlock pool.mutex;
  b.run_task i;
  Mutex.lock pool.mutex;
  b.unfinished <- b.unfinished - 1;
  if b.unfinished = 0 then begin
    pool.active <- List.filter (fun x -> x != b) pool.active;
    Condition.broadcast pool.changed
  end

let rec newest_open = function
  | [] -> None
  | b :: rest -> if b.next < b.total then Some b else newest_open rest

(* The newest batch newer than [own] with an unclaimed task. *)
let rec newer_open own = function
  | [] -> None
  | b :: rest ->
      if b == own then None
      else if b.next < b.total then Some b
      else newer_open own rest

let worker () =
  Mutex.lock pool.mutex;
  let rec loop () =
    if pool.shutting_down then Mutex.unlock pool.mutex
    else begin
      (match newest_open pool.active with
      | Some b -> run_one b
      | None -> Condition.wait pool.changed pool.mutex);
      loop ()
    end
  in
  loop ()

let shutdown () =
  Mutex.lock pool.mutex;
  pool.shutting_down <- true;
  Condition.broadcast pool.changed;
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
  let b = { run_task; total; next = 0; unfinished = total } in
  pool.active <- b :: pool.active;
  Condition.broadcast pool.changed;
  while b.next < b.total do
    run_one b
  done;
  while b.unfinished > 0 do
    match newer_open b pool.active with
    | Some nb -> run_one nb
    | None -> Condition.wait pool.changed pool.mutex
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

let mapi ?jobs f arr =
  let n = Array.length arr in
  (* counted on both paths, so the totals match at any job count *)
  if n > 0 then begin
    Obs.incr m_batches;
    Obs.add m_tasks n
  end;
  let jobs = resolve jobs in
  (* Lend the caller's span context (its open span, or none) to every
     task — wrapped before the path split so the span tree has the same
     shape on the sequential bypass as across worker domains, and so a
     task that a waiting submitter runs for a newer batch stays out of
     that submitter's own open spans. *)
  let f =
    if Obs.enabled () then begin
      let ctx = Obs.context () in
      fun i x -> Obs.with_context ctx (fun () -> f i x)
    end
    else f
  in
  if n <= 1 || jobs <= 1 then seq_mapi f arr
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
