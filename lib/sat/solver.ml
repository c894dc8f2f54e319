(* MiniSat-style CDCL. Internal literal encoding: variable [v] (1-based)
   yields literals [2v] (positive) and [2v+1] (negative); negation is
   [lxor 1]. Clause 0-and-1 slots hold the watched literals.

   The search state is flat: per-variable [int]/[bool]/[float] arrays,
   monomorphic int vectors (empty reads as [-1], never an option) and
   an [int array array] clause store. Scratch buffers (the learnt
   clause under construction, the literals of a clause being added and
   their marks) live in the solver and are reused, so a propagation
   allocates nothing and a conflict allocates only the clause it
   learns. *)

module Rng = Shell_util.Rng
module Obs = Shell_util.Obs

(* Process-wide effort metrics, flushed from the per-solver counters at
   the end of each [solve]. Registered unstable: how much work the
   solver is asked to do depends on the attack's wall-clock budget, so
   the totals are not a pure function of the workload. *)
let m_solve_calls = Obs.counter ~help:"calls to Solver.solve" "solver_solve_calls"
let m_decisions = Obs.counter ~help:"branching decisions" "solver_decisions"

let m_propagations =
  Obs.counter ~help:"literals implied by unit propagation" "solver_propagations"

let m_conflicts = Obs.counter ~help:"conflicts analyzed" "solver_conflicts"
let m_restarts = Obs.counter ~help:"Luby restarts taken" "solver_restarts"

let h_learned_len =
  Obs.histogram ~help:"learned clause length (literals)" "solver_learned_len"

(* [arr] with room for at least [n] elements, doubling as it grows.
   Callers storing the result into a mutable pointer field test for a
   full array first, which keeps the write barrier off the hot path. *)
let grow_array arr n default =
  let old = Array.length arr in
  if n <= old then arr
  else begin
    let a = Array.make (max (max 8 n) (2 * old)) default in
    Array.blit arr 0 a 0 old;
    a
  end

(* Growable int vector. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then
      v.data <- grow_array v.data (v.len + 1) 0;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  (* Remove and return the last element; -1 when empty. *)
  let pop v =
    if v.len = 0 then -1
    else begin
      v.len <- v.len - 1;
      v.data.(v.len)
    end
end

type result = Sat | Unsat | Unknown

type t = {
  mutable nvars : int;
  mutable assigns : int array;  (* var -> -1 / 0 / 1 *)
  mutable level : int array;
  mutable reason : int array;  (* var -> clause index or -1 *)
  mutable phase : bool array;  (* saved phases *)
  mutable activity : float array;
  var_inc : float array;  (* one cell: a mutable float field would box *)
  mutable clauses : int array array;  (* clause index -> literals *)
  mutable nclauses : int;
  (* lit -> clause indices: the first [watch_len.(lit)] entries of
     [watches.(lit)] *)
  mutable watches : int array array;
  mutable watch_len : int array;
  trail : Ivec.t;
  trail_lim : Ivec.t;
  mutable qhead : int;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  (* binary heap over vars ordered by activity *)
  heap : Ivec.t;
  mutable heap_pos : int array;  (* var -> index in heap or -1 *)
  (* conflict-analysis scratch, reused across conflicts *)
  mutable seen : bool array;
  seen_touched : Ivec.t;
  learnt : Ivec.t;
  (* [add_clause] scratch: the clause's literals, and a mark per
     internal literal (all false between calls) *)
  adding : Ivec.t;
  mutable lit_mark : bool array;
  seed : int;  (* 0 = all-false initial phases; else per-var pseudorandom *)
}

let create ?(seed = 0) () =
  {
    nvars = 0;
    assigns = Array.make 1 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    phase = Array.make 1 false;
    activity = Array.make 1 0.0;
    var_inc = [| 1.0 |];
    clauses = [||];
    nclauses = 0;
    watches = Array.make 4 [||];
    watch_len = Array.make 4 0;
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    qhead = 0;
    unsat = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    heap = Ivec.create ();
    heap_pos = Array.make 1 (-1);
    seen = Array.make 1 false;
    seen_touched = Ivec.create ();
    learnt = Ivec.create ();
    adding = Ivec.create ();
    lit_mark = Array.make 4 false;
    seed;
  }

let num_vars t = t.nvars
let num_conflicts t = t.conflicts

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
}

let stats (t : t) =
  {
    decisions = t.decisions;
    propagations = t.propagations;
    conflicts = t.conflicts;
    restarts = t.restarts;
  }

(* ---------------- activity heap ---------------- *)

let heap_less t a b = t.activity.(a) > t.activity.(b)

let heap_swap t i j =
  let h = t.heap.Ivec.data in
  let a = h.(i) and b = h.(j) in
  h.(i) <- b;
  h.(j) <- a;
  t.heap_pos.(a) <- j;
  t.heap_pos.(b) <- i

let rec heap_up t i =
  if i > 0 then begin
    let h = t.heap.Ivec.data in
    let p = (i - 1) / 2 in
    if heap_less t h.(i) h.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let h = t.heap.Ivec.data and n = t.heap.Ivec.len in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = if l < n && heap_less t h.(l) h.(i) then l else i in
  let best = if r < n && heap_less t h.(r) h.(best) then r else best in
  if best <> i then begin
    heap_swap t i best;
    heap_down t best
  end

let heap_insert t v =
  if t.heap_pos.(v) = -1 then begin
    let i = t.heap.Ivec.len in
    Ivec.push t.heap v;
    t.heap_pos.(v) <- i;
    heap_up t i
  end

(* The most active variable, removed from the heap; -1 when empty. *)
let heap_pop t =
  let heap = t.heap in
  let n = heap.Ivec.len in
  if n = 0 then -1
  else begin
    let h = heap.Ivec.data in
    let top = h.(0) and last = h.(n - 1) in
    heap.Ivec.len <- n - 1;
    t.heap_pos.(top) <- -1;
    if n > 1 then begin
      h.(0) <- last;
      t.heap_pos.(last) <- 0;
      heap_down t 0
    end;
    top
  end

let heap_bump t v =
  let i = t.heap_pos.(v) in
  if i >= 0 then heap_up t i

(* ---------------- variables ---------------- *)

(* Size every per-variable and per-literal array for variables
   [1..n] at once. *)
let reserve t n =
  t.assigns <- grow_array t.assigns (n + 1) (-1);
  t.level <- grow_array t.level (n + 1) 0;
  t.reason <- grow_array t.reason (n + 1) (-1);
  t.phase <- grow_array t.phase (n + 1) false;
  t.activity <- grow_array t.activity (n + 1) 0.0;
  t.heap_pos <- grow_array t.heap_pos (n + 1) (-1);
  t.seen <- grow_array t.seen (n + 1) false;
  let nlits = 2 * (n + 1) in
  t.lit_mark <- grow_array t.lit_mark nlits false;
  t.watches <- grow_array t.watches nlits [||];
  t.watch_len <- grow_array t.watch_len nlits 0

let init_var t v =
  t.assigns.(v) <- -1;
  t.heap_pos.(v) <- -1;
  if t.seed <> 0 then
    t.phase.(v) <- Rng.bool (Rng.create (t.seed lxor (v * 0x9E3779B9)));
  heap_insert t v

let new_var t =
  let v = t.nvars + 1 in
  reserve t v;
  t.nvars <- v;
  init_var t v;
  v

let ensure_vars t n =
  if n > t.nvars then begin
    reserve t n;
    for v = t.nvars + 1 to n do
      t.nvars <- v;
      init_var t v
    done
  end

(* ---------------- literal helpers ---------------- *)

let ilit l = if l > 0 then 2 * l else (2 * -l) + 1

(* value of internal literal: -1 unassigned / 0 false / 1 true *)
let lit_value t l =
  match t.assigns.(l lsr 1) with
  | -1 -> -1
  | v -> if l land 1 = 0 then v else 1 - v

let decision_level t = t.trail_lim.Ivec.len

(* ---------------- assignment ---------------- *)

let enqueue t l reason =
  let v = l lsr 1 in
  let pos = l land 1 = 0 in
  t.assigns.(v) <- (if pos then 1 else 0);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.phase.(v) <- pos;
  Ivec.push t.trail l

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let trail = t.trail in
    let bound = t.trail_lim.Ivec.data.(lvl) in
    while trail.Ivec.len > bound do
      let v = Ivec.pop trail lsr 1 in
      t.assigns.(v) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_lim.Ivec.len <- lvl;
    t.qhead <- trail.Ivec.len
  end

(* ---------------- clauses ---------------- *)

let watch t l ci =
  let n = t.watch_len.(l) in
  if n = Array.length t.watches.(l) then
    t.watches.(l) <- grow_array t.watches.(l) (n + 1) 0;
  t.watches.(l).(n) <- ci;
  t.watch_len.(l) <- n + 1

(* Store a clause of two or more literals and watch its first two;
   returns its index. *)
let push_clause t lits =
  let ci = t.nclauses in
  if ci = Array.length t.clauses then
    t.clauses <- grow_array t.clauses (ci + 1) [||];
  t.clauses.(ci) <- lits;
  t.nclauses <- ci + 1;
  watch t (lits.(0) lxor 1) ci;
  watch t (lits.(1) lxor 1) ci;
  ci

(* Propagate all enqueued facts; returns conflicting clause id or -1. *)
let propagate t =
  let trail = t.trail in
  let confl = ref (-1) in
  while !confl = -1 && t.qhead < trail.Ivec.len do
    let p = trail.Ivec.data.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let false_lit = p lxor 1 in
    (* watches.(p): clauses watching the literal that just became
       false are registered under the *true* literal's slot; we store
       watch entries under [lit lxor 1] in [push_clause], so reading
       the list at [p] yields clauses in which [p lxor 1] is watched.

       The list is compacted in place with read/write cursors: entries
       that keep their watch slide down past entries that moved to
       another list, with no per-propagation array allocation. A new
       watch is never this same list (the replacement literal is
       non-false, [p lxor 1] is false), so pushes cannot disturb the
       compaction, nor reallocate [ws]. *)
    let ws = t.watches.(p) and n = t.watch_len.(p) in
    let i = ref 0 and w = ref 0 in
    while !i < n do
      let ci = ws.(!i) in
      incr i;
      let c = t.clauses.(ci) in
      (* ensure the false literal is in slot 1 *)
      if c.(0) = false_lit then begin
        c.(0) <- c.(1);
        c.(1) <- false_lit
      end;
      if lit_value t c.(0) = 1 then begin
        (* satisfied; keep watching the same literal *)
        ws.(!w) <- ci;
        incr w
      end
      else begin
        (* look for a new watch: the first non-false literal past the
           watched pair *)
        let len = Array.length c in
        let j = ref 2 in
        while !j < len && lit_value t c.(!j) = 0 do
          incr j
        done;
        if !j < len then begin
          let l = c.(!j) in
          c.(1) <- l;
          c.(!j) <- false_lit;
          watch t (l lxor 1) ci
        end
        else begin
          ws.(!w) <- ci;
          incr w;
          if lit_value t c.(0) = 0 then begin
            (* conflict: keep the unexamined rest of the watch list *)
            confl := ci;
            t.qhead <- trail.Ivec.len;
            while !i < n do
              ws.(!w) <- ws.(!i);
              incr w;
              incr i
            done
          end
          else begin
            t.propagations <- t.propagations + 1;
            enqueue t c.(0) ci
          end
        end
      end
    done;
    t.watch_len.(p) <- !w
  done;
  !confl

let var_bump t v =
  let act = t.activity in
  act.(v) <- act.(v) +. t.var_inc.(0);
  if act.(v) > 1e100 then begin
    for u = 1 to t.nvars do
      act.(u) <- act.(u) *. 1e-100
    done;
    t.var_inc.(0) <- t.var_inc.(0) *. 1e-100
  end;
  heap_bump t v

let var_decay t = t.var_inc.(0) <- t.var_inc.(0) /. 0.95

(* First-UIP conflict analysis into [t.learnt]: slot 0 holds the
   asserting literal, slot 1 a literal of the backjump level, which is
   returned. *)
let analyze t confl =
  (* [t.seen] is all-false between conflicts: every entry set here is
     recorded in [t.seen_touched] and cleared before returning, so the
     array is reused without an O(nvars) allocation or fill. *)
  let seen = t.seen and touched = t.seen_touched and learnt = t.learnt in
  learnt.Ivec.len <- 0;
  Ivec.push learnt 0;  (* slot for the asserting literal *)
  let dl = decision_level t in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let trail_idx = ref (t.trail.Ivec.len - 1) in
  while !p = -1 || !counter > 0 do
    let c = t.clauses.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length c - 1 do
      let q = c.(j) in
      let v = q lsr 1 in
      if (not seen.(v)) && t.level.(v) > 0 then begin
        seen.(v) <- true;
        Ivec.push touched v;
        var_bump t v;
        if t.level.(v) >= dl then incr counter else Ivec.push learnt q
      end
    done;
    (* pick next literal to expand from the trail *)
    let tr = t.trail.Ivec.data in
    while not seen.(tr.(!trail_idx) lsr 1) do
      decr trail_idx
    done;
    let l = tr.(!trail_idx) in
    decr trail_idx;
    p := l;
    seen.(l lsr 1) <- false;
    decr counter;
    if !counter > 0 then confl := t.reason.(l lsr 1)
  done;
  for k = 0 to touched.Ivec.len - 1 do
    seen.(touched.Ivec.data.(k)) <- false
  done;
  touched.Ivec.len <- 0;
  let lits = learnt.Ivec.data and n = learnt.Ivec.len in
  lits.(0) <- !p lxor 1;
  (* backjump level = max level among lits.(1..) *)
  let blevel = ref 0 in
  let swap_pos = ref 1 in
  for i = 1 to n - 1 do
    let lv = t.level.(lits.(i) lsr 1) in
    if lv > !blevel then begin
      blevel := lv;
      swap_pos := i
    end
  done;
  if n > 1 then begin
    let tmp = lits.(1) in
    lits.(1) <- lits.(!swap_pos);
    lits.(!swap_pos) <- tmp
  end;
  !blevel

let record_learnt t =
  let n = t.learnt.Ivec.len in
  let l0 = t.learnt.Ivec.data.(0) in
  if n = 1 then begin
    cancel_until t 0;
    enqueue t l0 (-1)
  end
  else begin
    let ci = push_clause t (Array.sub t.learnt.Ivec.data 0 n) in
    enqueue t l0 ci
  end;
  Obs.observe h_learned_len n

(* Add the clause staged in [t.adding] (DIMACS literals). *)
let add_staged t =
  cancel_until t 0;
  if not t.unsat then begin
    let buf = t.adding.Ivec.data and n = t.adding.Ivec.len in
    for k = 0 to n - 1 do
      let l = buf.(k) in
      if l = 0 || abs l > t.nvars then invalid_arg "Solver.add_clause: bad literal"
    done;
    (* simplify against level-0 assignments; drop duplicates. The kept
       internal literals are compacted to the front of [buf]. *)
    let mark = t.lit_mark in
    let kept = ref 0 and satisfied = ref false and k = ref 0 in
    while (not !satisfied) && !k < n do
      let il = ilit buf.(!k) in
      incr k;
      match lit_value t il with
      | 1 -> satisfied := true
      | 0 -> ()
      | _ ->
          if mark.(il lxor 1) then satisfied := true
          else if not mark.(il) then begin
            mark.(il) <- true;
            buf.(!kept) <- il;
            incr kept
          end
    done;
    for k = 0 to !kept - 1 do
      mark.(buf.(k)) <- false
    done;
    if not !satisfied then
      match !kept with
      | 0 -> t.unsat <- true
      | 1 ->
          enqueue t buf.(0) (-1);
          if propagate t <> -1 then t.unsat <- true
      | m ->
          (* the kept literals, last first *)
          let lits = Array.make m 0 in
          for k = 0 to m - 1 do
            lits.(k) <- buf.(m - 1 - k)
          done;
          ignore (push_clause t lits)
  end

let add_clause t lits =
  t.adding.Ivec.len <- 0;
  List.iter (Ivec.push t.adding) lits;
  add_staged t

let add_clause_shifted t k lits =
  t.adding.Ivec.len <- 0;
  for i = 0 to Array.length lits - 1 do
    let l = lits.(i) in
    Ivec.push t.adding (if l > 0 then l + k else l - k)
  done;
  add_staged t

(* ---------------- search ---------------- *)

(* The most active unassigned variable; -1 when every variable is
   assigned. *)
let rec pick_branch t =
  let v = heap_pop t in
  if v = -1 || t.assigns.(v) = -1 then v else pick_branch t

(* Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's port). *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let solve_search ?(assumptions = []) ?max_conflicts ?deadline t =
  cancel_until t 0;
  if t.unsat then Unsat
  else if propagate t <> -1 then begin
    t.unsat <- true;
    Unsat
  end
  else begin
    let assumptions = Array.of_list (List.map ilit assumptions) in
    let nassume = Array.length assumptions in
    let budget = match max_conflicts with Some b -> t.conflicts + b | None -> max_int in
    let c0 = t.conflicts in
    (* the clock is read only every 256 conflicts of this call *)
    let past_deadline () =
      match deadline with
      | Some d ->
          (t.conflicts - c0) land 255 = 0 && Shell_util.Clock.now () >= d
      | None -> false
    in
    let restart_n = ref 0 in
    let conflicts_until_restart = ref (100 * luby !restart_n) in
    let result = ref None in
    while !result = None do
      let confl = propagate t in
      if confl <> -1 then begin
        t.conflicts <- t.conflicts + 1;
        decr conflicts_until_restart;
        if decision_level t <= nassume then
          (* conflict inside assumption levels: unsat under assumptions *)
          result := Some Unsat
        else begin
          let blevel = analyze t confl in
          cancel_until t blevel;
          record_learnt t;
          var_decay t
        end;
        if !result = None && (t.conflicts >= budget || past_deadline ()) then
          result := Some Unknown
        else if !conflicts_until_restart <= 0 && !result = None then begin
          incr restart_n;
          t.restarts <- t.restarts + 1;
          conflicts_until_restart := 100 * luby !restart_n;
          cancel_until t nassume
        end
      end
      else begin
        (* decide *)
        let dl = decision_level t in
        if dl < nassume then begin
          let l = assumptions.(dl) in
          match lit_value t l with
          | 1 ->
              (* already satisfied: open an empty decision level *)
              Ivec.push t.trail_lim t.trail.Ivec.len
          | 0 -> result := Some Unsat
          | _ ->
              Ivec.push t.trail_lim t.trail.Ivec.len;
              enqueue t l (-1)
        end
        else
          match pick_branch t with
          | -1 -> result := Some Sat
          | v ->
              t.decisions <- t.decisions + 1;
              Ivec.push t.trail_lim t.trail.Ivec.len;
              enqueue t (if t.phase.(v) then 2 * v else (2 * v) + 1) (-1)
      end
    done;
    match !result with
    | Some Sat -> Sat  (* keep trail so [value] can read the model *)
    | Some r ->
        cancel_until t 0;
        r
    | None -> assert false
  end

let solve ?assumptions ?max_conflicts ?deadline t =
  if not (Obs.enabled ()) then
    solve_search ?assumptions ?max_conflicts ?deadline t
  else begin
    Obs.incr m_solve_calls;
    let d0 = t.decisions
    and p0 = t.propagations
    and c0 = t.conflicts
    and r0 = t.restarts in
    Fun.protect
      ~finally:(fun () ->
        Obs.add m_decisions (t.decisions - d0);
        Obs.add m_propagations (t.propagations - p0);
        Obs.add m_conflicts (t.conflicts - c0);
        Obs.add m_restarts (t.restarts - r0))
      (fun () -> solve_search ?assumptions ?max_conflicts ?deadline t)
  end

let value t v =
  if v < 1 || v > t.nvars then invalid_arg "Solver.value";
  t.assigns.(v) = 1

let model t = Array.init (t.nvars + 1) (fun v -> v > 0 && t.assigns.(v) = 1)
