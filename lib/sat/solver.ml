(* MiniSat-style CDCL. Internal literal encoding: variable [v] (1-based)
   yields literals [2v] (positive) and [2v+1] (negative); negation is
   [lxor 1].

   The search state is flat:
   - [vals] holds one byte per internal literal (true, false or
     unassigned), so a literal's truth is one load with no sign fix-up;
   - per-variable arrays ([level], [reason], [phase], [activity], the
     heap, the trail, [seen]) and per-literal ones ([vals], the watch
     lists, [lit_mark]) are all resized together by [resize];
   - every clause lives in one int [arena] as its length followed by
     its literals, slots 0 and 1 holding the watched pair; a clause id
     is the offset of its length word, and a learnt clause is appended
     in place.
   Scratch buffers (the learnt clause under construction, the marks of
   a clause being added) live in the solver and are reused, so a
   propagation allocates nothing and a conflict allocates nothing
   unless the arena has to grow.

   Unchecked reads and writes appear only in [propagate], [analyze],
   the activity heap and [cancel_until]. Each rests on invariants that
   the API boundary keeps, named where they are used:
   - (lits) every literal stored in the arena, put on the trail or taken
     as an assumption lies in [2, 2 * nvars + 1]: [add_clause] rejects
     any other as a "bad literal", [solve] as a "bad assumption", and
     decisions come off the heap;
   - (size) every per-variable array holds at least [nvars + 1] entries
     and every per-literal one [2 * nvars + 2]: [resize] grows them all
     before [nvars] moves, and nothing shrinks them;
   - (arena) a clause id on a watch list or in [reason] is the offset of
     a stored clause of two or more literals, all below
     [arena_len <= Array.length arena]; a watch list's live entries lie
     below its [watch_len] entry, which never exceeds its length;
   - (trail) each assigned variable is on the trail once, so the trail
     never holds more than [nvars] literals, and [trail_lim] holds
     non-decreasing trail positions;
   - (heap) the heap holds each variable of [1, nvars] at most once, at
     the index [heap_pos] records. *)

module Rng = Shell_util.Rng
module Obs = Shell_util.Obs
module A = Array
module B = Bytes

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
end

type result = Sat | Unsat | Unknown

(* literal values in [vals]; also the byte flags of [phase], [seen] and
   [lit_mark] (['\001'] set, ['\000'] clear) *)
let l_false = '\000'
let l_true = '\001'
let l_undef = '\002'

type t = {
  mutable nvars : int;
  mutable cap : int;  (* every per-variable array holds [0 .. cap - 1] *)
  mutable vals : Bytes.t;  (* internal literal -> l_false/l_true/l_undef *)
  mutable level : int array;
  mutable reason : int array;  (* var -> clause id or -1 *)
  mutable phase : Bytes.t;  (* saved phases: l_true = positive *)
  mutable activity : float array;
  var_inc : float array;  (* one cell: a mutable float field would box *)
  mutable arena : int array;  (* clauses: length word, then literals *)
  mutable arena_len : int;
  (* lit -> clause ids: the first [watch_len.(lit)] entries of
     [watches.(lit)] *)
  mutable watches : int array array;
  mutable watch_len : int array;
  mutable trail : int array;
  mutable trail_len : int;
  trail_lim : Ivec.t;
  mutable qhead : int;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  (* binary heap over vars ordered by activity *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_pos : int array;  (* var -> index in heap or -1 *)
  (* conflict-analysis scratch, reused across conflicts *)
  mutable seen : Bytes.t;
  seen_touched : Ivec.t;
  learnt : Ivec.t;
  (* [add_clause] scratch: a mark per internal literal (all clear
     between calls) *)
  mutable lit_mark : Bytes.t;
  seed : int;  (* 0 = all-false initial phases; else per-var pseudorandom *)
}

let create ?(seed = 0) () =
  {
    nvars = 0;
    cap = 1;
    vals = B.make 2 l_undef;
    level = [| 0 |];
    reason = [| -1 |];
    phase = B.make 1 l_false;
    activity = [| 0.0 |];
    var_inc = [| 1.0 |];
    arena = [||];
    arena_len = 0;
    watches = [| [||]; [||] |];
    watch_len = [| 0; 0 |];
    trail = [| 0 |];
    trail_len = 0;
    trail_lim = Ivec.create ();
    qhead = 0;
    unsat = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    heap = [| 0 |];
    heap_len = 0;
    heap_pos = [| -1 |];
    seen = B.make 1 l_false;
    seen_touched = Ivec.create ();
    learnt = Ivec.create ();
    lit_mark = B.make 2 l_false;
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

(* Every read below is unchecked under (heap) and (size): heap indexes
   stay below [heap_len], and every entry is a variable of [1, nvars].
   Sifting moves a hole instead of swapping: the element being sifted
   meets the same comparisons, so the heap ends in the same shape. *)

let heap_up t i =
  let h = t.heap and pos = t.heap_pos and act = t.activity in
  let v = A.unsafe_get h i in
  let a = A.unsafe_get act v in
  let i = ref i in
  while
    !i > 0
    && a > A.unsafe_get act (A.unsafe_get h ((!i - 1) / 2))
  do
    let p = (!i - 1) / 2 in
    let u = A.unsafe_get h p in
    A.unsafe_set h !i u;
    A.unsafe_set pos u !i;
    i := p
  done;
  A.unsafe_set h !i v;
  A.unsafe_set pos v !i

let heap_down t i =
  let h = t.heap and pos = t.heap_pos and act = t.activity in
  let n = t.heap_len in
  let v = A.unsafe_get h i in
  let a = A.unsafe_get act v in
  let i = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let best = ref !i and best_act = ref a in
    if l < n && A.unsafe_get act (A.unsafe_get h l) > a then begin
      best := l;
      best_act := A.unsafe_get act (A.unsafe_get h l)
    end;
    let r = l + 1 in
    if r < n && A.unsafe_get act (A.unsafe_get h r) > !best_act then best := r;
    if !best = !i then sifting := false
    else begin
      let u = A.unsafe_get h !best in
      A.unsafe_set h !i u;
      A.unsafe_set pos u !i;
      i := !best
    end
  done;
  A.unsafe_set h !i v;
  A.unsafe_set pos v !i

let heap_insert t v =
  if A.unsafe_get t.heap_pos v = -1 then begin
    let i = t.heap_len in
    (* (heap): [v] is absent, so the heap holds fewer than [nvars] *)
    A.unsafe_set t.heap i v;
    t.heap_len <- i + 1;
    heap_up t i
  end

(* The most active variable, removed from the heap; -1 when empty. *)
let heap_pop t =
  let n = t.heap_len in
  if n = 0 then -1
  else begin
    let h = t.heap in
    let top = A.unsafe_get h 0 and last = A.unsafe_get h (n - 1) in
    t.heap_len <- n - 1;
    A.unsafe_set t.heap_pos top (-1);
    if n > 1 then begin
      A.unsafe_set h 0 last;
      heap_down t 0
    end;
    top
  end

let heap_bump t v =
  let i = A.unsafe_get t.heap_pos v in
  if i >= 0 then heap_up t i

(* ---------------- variables ---------------- *)

(* Resize every per-variable and per-literal array to hold variables
   [0 .. cap - 1]. *)
let resize t cap =
  let old = t.cap in
  (* int arrays are copied by a loop over their live prefix: [Array.blit]
     into a block on the major heap goes through the write barrier word
     by word, and these blocks are too large for the minor heap *)
  let ints ?(n = cap) a live default =
    let b = A.make n default in
    for i = 0 to live - 1 do
      b.(i) <- a.(i)
    done;
    b
  in
  let bytes a n default =
    let b = B.make n default in
    B.blit a 0 b 0 (B.length a);
    b
  in
  t.level <- ints t.level old 0;
  t.reason <- ints t.reason old (-1);
  t.heap_pos <- ints t.heap_pos old (-1);
  t.trail <- ints t.trail t.trail_len 0;
  t.heap <- ints t.heap t.heap_len 0;
  t.activity <-
    (let b = A.make cap 0.0 in
     A.blit t.activity 0 b 0 old;
     b);
  t.phase <- bytes t.phase cap l_false;
  t.seen <- bytes t.seen cap l_false;
  t.vals <- bytes t.vals (2 * cap) l_undef;
  t.lit_mark <- bytes t.lit_mark (2 * cap) l_false;
  t.watches <-
    (let b = A.make (2 * cap) [||] in
     A.blit t.watches 0 b 0 (2 * old);
     b);
  t.watch_len <- ints ~n:(2 * cap) t.watch_len (2 * old) 0;
  t.cap <- cap

let reserve t n =
  if n < 0 then invalid_arg "Solver.reserve: negative count";
  if n >= t.cap then resize t (n + 1)

(* Room for variables [1..n]: growth past the reserved room doubles. *)
let grow_for t n = if n >= t.cap then resize t (max (n + 1) (2 * t.cap))

let init_var t v =
  if t.seed <> 0 then
    B.set t.phase v
      (if Rng.first_bool (t.seed lxor (v * 0x9E3779B9)) then l_true
       else l_false);
  heap_insert t v

let new_var t =
  let v = t.nvars + 1 in
  grow_for t v;
  t.nvars <- v;
  init_var t v;
  v

let ensure_vars t n =
  if n > t.nvars then begin
    grow_for t n;
    for v = t.nvars + 1 to n do
      t.nvars <- v;
      init_var t v
    done
  end

(* ---------------- literal helpers ---------------- *)

let ilit l = if l > 0 then 2 * l else (2 * -l) + 1

let shifted l shift = if l > 0 then l + shift else l - shift

(* A DIMACS literal over the existing variables. *)
let valid_lit t l = l <> 0 && l <= t.nvars && l >= -t.nvars

let decision_level t = t.trail_lim.Ivec.len

(* ---------------- assignment ---------------- *)

let enqueue t l reason =
  let v = l lsr 1 in
  B.set t.vals l l_true;
  B.set t.vals (l lxor 1) l_false;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  B.set t.phase v (if l land 1 = 0 then l_true else l_false);
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let vals = t.vals and trail = t.trail in
    let bound = t.trail_lim.Ivec.data.(lvl) in
    (* (trail): positions below [trail_len] hold literals, (lits) of
       live variables; the reason of an unassigned variable is never
       read, so it is left as it is *)
    for i = t.trail_len - 1 downto bound do
      let l = A.unsafe_get trail i in
      B.unsafe_set vals l l_undef;
      B.unsafe_set vals (l lxor 1) l_undef;
      heap_insert t (l lsr 1)
    done;
    t.trail_len <- bound;
    t.trail_lim.Ivec.len <- lvl;
    t.qhead <- bound
  end

(* ---------------- clauses ---------------- *)

let watch t l ci =
  let n = t.watch_len.(l) in
  if n = Array.length t.watches.(l) then
    t.watches.(l) <- grow_array t.watches.(l) (n + 1) 0;
  t.watches.(l).(n) <- ci;
  t.watch_len.(l) <- n + 1

(* Room for [n] more arena words. *)
let arena_room t n =
  if t.arena_len + n > Array.length t.arena then
    t.arena <- grow_array t.arena (t.arena_len + n) 0

(* Store the [m >= 2] literals just written at [arena_len + 1] as a
   clause and watch its first two; returns its id. *)
let commit_clause t m =
  let ci = t.arena_len in
  let arena = t.arena in
  arena.(ci) <- m;
  t.arena_len <- ci + m + 1;
  watch t (arena.(ci + 1) lxor 1) ci;
  watch t (arena.(ci + 2) lxor 1) ci;
  ci

(* Propagate all enqueued facts; returns conflicting clause id or -1.

   Every access is unchecked: [p] comes off the trail and every other
   literal out of a stored clause (lits, trail), so it indexes [vals],
   [watches], [watch_len], [level], [reason] and [phase] within their
   size (size); [ci] comes off [p]'s watch list below its length, and
   the clause's words lie below [arena_len] (arena); a literal enqueued
   here was unassigned, so the trail has room for it (trail). The
   arena, the watch table and the per-variable arrays are not resized
   while this runs, so they are read once up front. *)
let propagate t =
  let vals = t.vals and arena = t.arena and trail = t.trail in
  let watches = t.watches and watch_len = t.watch_len in
  let level = t.level and reason = t.reason and phase = t.phase in
  let dl = decision_level t in
  let qhead = ref t.qhead and tlen = ref t.trail_len in
  let props = ref 0 in
  let confl = ref (-1) in
  while !confl = -1 && !qhead < !tlen do
    let p = A.unsafe_get trail !qhead in
    incr qhead;
    let false_lit = p lxor 1 in
    (* watches.(p): clauses watching the literal that just became
       false are registered under the *true* literal's slot; we store
       watch entries under [lit lxor 1] in [commit_clause], so reading
       the list at [p] yields clauses in which [p lxor 1] is watched.

       The list is compacted in place with read/write cursors: entries
       that keep their watch slide down past entries that moved to
       another list, with no per-propagation array allocation. A new
       watch is never this same list (the replacement literal is
       non-false, [p lxor 1] is false), so pushes cannot disturb the
       compaction, nor reallocate [ws]. *)
    let ws = A.unsafe_get watches p and n = A.unsafe_get watch_len p in
    let i = ref 0 and w = ref 0 in
    while !i < n do
      let ci = A.unsafe_get ws !i in
      incr i;
      let c0 = ci + 1 in
      (* ensure the false literal is in slot 1 *)
      let first =
        let l0 = A.unsafe_get arena c0 in
        if l0 = false_lit then begin
          let l1 = A.unsafe_get arena (c0 + 1) in
          A.unsafe_set arena c0 l1;
          A.unsafe_set arena (c0 + 1) false_lit;
          l1
        end
        else l0
      in
      if B.unsafe_get vals first = l_true then begin
        (* satisfied; keep watching the same literal *)
        A.unsafe_set ws !w ci;
        incr w
      end
      else begin
        (* look for a new watch: the first non-false literal past the
           watched pair *)
        let stop = c0 + A.unsafe_get arena ci in
        let j = ref (c0 + 2) in
        while !j < stop && B.unsafe_get vals (A.unsafe_get arena !j) = l_false do
          incr j
        done;
        if !j < stop then begin
          let l = A.unsafe_get arena !j in
          A.unsafe_set arena (c0 + 1) l;
          A.unsafe_set arena !j false_lit;
          let wl = l lxor 1 in
          let m = A.unsafe_get watch_len wl in
          if m = A.length (A.unsafe_get watches wl) then
            A.unsafe_set watches wl (grow_array (A.unsafe_get watches wl) (m + 1) 0);
          A.unsafe_set (A.unsafe_get watches wl) m ci;
          A.unsafe_set watch_len wl (m + 1)
        end
        else begin
          A.unsafe_set ws !w ci;
          incr w;
          if B.unsafe_get vals first = l_false then begin
            (* conflict: keep the unexamined rest of the watch list *)
            confl := ci;
            qhead := !tlen;
            while !i < n do
              A.unsafe_set ws !w (A.unsafe_get ws !i);
              incr w;
              incr i
            done
          end
          else begin
            incr props;
            let v = first lsr 1 in
            B.unsafe_set vals first l_true;
            B.unsafe_set vals (first lxor 1) l_false;
            A.unsafe_set level v dl;
            A.unsafe_set reason v ci;
            B.unsafe_set phase v (if first land 1 = 0 then l_true else l_false);
            A.unsafe_set trail !tlen first;
            incr tlen
          end
        end
      end
    done;
    A.unsafe_set watch_len p !w
  done;
  t.qhead <- !qhead;
  t.trail_len <- !tlen;
  t.propagations <- t.propagations + !props;
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
   returned.

   Unchecked reads: [confl] and every reason expanded are clause ids
   (arena), whose literals index [seen] and [level] (lits, size). The
   trail scan stops at a seen literal before leaving the trail: while
   [counter > 0] a seen variable of the conflict level is still on the
   trail below [trail_idx] (trail), and it is never the level's first
   literal, so its reason is a stored clause (arena). *)
let analyze t confl =
  (* [t.seen] is all-clear between conflicts: every entry set here is
     recorded in [t.seen_touched] and cleared before returning, so the
     array is reused without an O(nvars) allocation or fill. *)
  let seen = t.seen and touched = t.seen_touched and learnt = t.learnt in
  let arena = t.arena and level = t.level and reason = t.reason in
  let trail = t.trail in
  learnt.Ivec.len <- 0;
  Ivec.push learnt 0;  (* slot for the asserting literal *)
  let dl = decision_level t in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let trail_idx = ref (t.trail_len - 1) in
  while !p = -1 || !counter > 0 do
    let ci = !confl in
    let start = if !p = -1 then ci + 1 else ci + 2 in
    for j = start to ci + A.unsafe_get arena ci do
      let q = A.unsafe_get arena j in
      let v = q lsr 1 in
      if B.unsafe_get seen v = l_false && A.unsafe_get level v > 0 then begin
        B.unsafe_set seen v l_true;
        Ivec.push touched v;
        var_bump t v;
        if A.unsafe_get level v >= dl then incr counter else Ivec.push learnt q
      end
    done;
    (* pick next literal to expand from the trail *)
    while B.unsafe_get seen (A.unsafe_get trail !trail_idx lsr 1) = l_false do
      decr trail_idx
    done;
    let l = A.unsafe_get trail !trail_idx in
    decr trail_idx;
    p := l;
    B.unsafe_set seen (l lsr 1) l_false;
    decr counter;
    if !counter > 0 then confl := A.unsafe_get reason (l lsr 1)
  done;
  for k = 0 to touched.Ivec.len - 1 do
    B.unsafe_set seen (A.unsafe_get touched.Ivec.data k) l_false
  done;
  touched.Ivec.len <- 0;
  let lits = learnt.Ivec.data and n = learnt.Ivec.len in
  lits.(0) <- !p lxor 1;
  (* backjump level = max level among lits.(1..) *)
  let blevel = ref 0 in
  let swap_pos = ref 1 in
  for i = 1 to n - 1 do
    let lv = A.unsafe_get level (lits.(i) lsr 1) in
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
  let lits = t.learnt.Ivec.data in
  let l0 = lits.(0) in
  if n = 1 then begin
    cancel_until t 0;
    enqueue t l0 (-1)
  end
  else begin
    arena_room t (n + 1);
    A.blit lits 0 t.arena (t.arena_len + 1) n;
    enqueue t l0 (commit_clause t n)
  end;
  Obs.observe h_learned_len n

(* Add the clause of the [n] DIMACS literals [src.(pos ..)], each with
   [shift] added to its variable. *)
let add_lits t src pos n shift =
  cancel_until t 0;
  if not t.unsat then begin
    (* checked before shifting, so a huge literal cannot wrap back into
       range: [shift >= 0] keeps [room] from overflowing *)
    let room = t.nvars - shift in
    for k = pos to pos + n - 1 do
      let l = src.(k) in
      if l = 0 || l > room || l < -room then
        invalid_arg "Solver.add_clause: bad literal"
    done;
    (* simplify against level-0 assignments; drop duplicates. The kept
       internal literals go to the arena's free words, where a clause
       of two or more is stored. *)
    arena_room t (n + 1);
    let arena = t.arena and c = t.arena_len in
    let vals = t.vals and mark = t.lit_mark in
    let kept = ref 0 and satisfied = ref false and k = ref 0 in
    while (not !satisfied) && !k < n do
      let il = ilit (shifted src.(pos + !k) shift) in
      incr k;
      let v = B.get vals il in
      if v = l_true then satisfied := true
      else if v = l_undef then
        if B.get mark (il lxor 1) = l_true then satisfied := true
        else if B.get mark il = l_false then begin
          B.set mark il l_true;
          arena.(c + 1 + !kept) <- il;
          incr kept
        end
    done;
    for j = c + 1 to c + !kept do
      B.set mark arena.(j) l_false
    done;
    if not !satisfied then
      match !kept with
      | 0 -> t.unsat <- true
      | 1 ->
          enqueue t arena.(c + 1) (-1);
          if propagate t <> -1 then t.unsat <- true
      | m ->
          (* the kept literals, last first *)
          for j = 0 to (m / 2) - 1 do
            let a = arena.(c + 1 + j) in
            arena.(c + 1 + j) <- arena.(c + m - j);
            arena.(c + m - j) <- a
          done;
          ignore (commit_clause t m)
  end

let add_clauses ?(shift = 0) t flat =
  if shift < 0 then invalid_arg "Solver.add_clauses: negative shift";
  let len = Array.length flat in
  let pos = ref 0 in
  while !pos < len do
    let n = flat.(!pos) in
    if n < 0 || n > len - !pos - 1 then
      invalid_arg "Solver.add_clauses: bad clause length";
    add_lits t flat (!pos + 1) n shift;
    pos := !pos + 1 + n
  done

let add_clause t lits = add_clauses t (Array.of_list (List.length lits :: lits))

(* ---------------- search ---------------- *)

(* The most active unassigned variable; -1 when every variable is
   assigned. *)
let rec pick_branch t =
  let v = heap_pop t in
  if v = -1 || B.get t.vals (2 * v) = l_undef then v else pick_branch t

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

(* [assumptions] are internal literals, already checked by [solve]. *)
let solve_search ~assumptions ?max_conflicts ?deadline t =
  cancel_until t 0;
  if t.unsat then Unsat
  else if propagate t <> -1 then begin
    t.unsat <- true;
    Unsat
  end
  else begin
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
          let v = B.get t.vals l in
          if v = l_true then
            (* already satisfied: open an empty decision level *)
            Ivec.push t.trail_lim t.trail_len
          else if v = l_false then result := Some Unsat
          else begin
            Ivec.push t.trail_lim t.trail_len;
            enqueue t l (-1)
          end
        end
        else
          match pick_branch t with
          | -1 -> result := Some Sat
          | v ->
              t.decisions <- t.decisions + 1;
              Ivec.push t.trail_lim t.trail_len;
              enqueue t
                (if B.get t.phase v = l_true then 2 * v else (2 * v) + 1)
                (-1)
      end
    done;
    match !result with
    | Some Sat -> Sat  (* keep trail so [value] can read the model *)
    | Some r ->
        cancel_until t 0;
        r
    | None -> assert false
  end

let solve ?(assumptions = []) ?max_conflicts ?deadline t =
  (* checked before the search reads anything: (lits) *)
  let assumptions =
    Array.of_list
      (List.map
         (fun l ->
           if valid_lit t l then ilit l
           else invalid_arg "Solver.solve: bad assumption")
         assumptions)
  in
  if not (Obs.enabled ()) then
    solve_search ~assumptions ?max_conflicts ?deadline t
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
      (fun () -> solve_search ~assumptions ?max_conflicts ?deadline t)
  end

let value t v =
  if v < 1 || v > t.nvars then invalid_arg "Solver.value";
  B.get t.vals (2 * v) = l_true

let model t =
  Array.init (t.nvars + 1) (fun v -> v > 0 && B.get t.vals (2 * v) = l_true)
