(** CDCL SAT solver.

    Complete conflict-driven clause learning with two-literal watching,
    VSIDS-style decision ordering, phase saving, first-UIP learning and
    Luby restarts. Literals use the DIMACS convention: variable [v > 0],
    literal [v] or [-v].

    The solver is incremental in the way the SAT attack needs: clauses
    may be added between [solve] calls, and [solve] accepts assumption
    literals that hold for that call only.

    The search is a pure function of the seed and the calls made: the
    same clauses added in the same order and the same [solve] calls
    give the same conflicts, decisions, propagations, restarts and
    model. Its state is flat int arrays, so a propagation allocates
    nothing and a conflict allocates only the clause it learns. *)

type t

type result = Sat | Unsat | Unknown

val create : ?seed:int -> unit -> t
(** [seed] perturbs the initial saved phase of each variable (the
    default 0 keeps MiniSat's all-false phases). Distinct seeds steer
    the search down different branches of the same instance — the knob
    the attack portfolio races over. *)

val new_var : t -> int
(** Allocate the next variable (1, 2, ...). *)

val ensure_vars : t -> int -> unit
(** Make sure variables [1..n] exist. *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Clauses over existing variables. Adding a clause that is already
    falsified at level 0 makes the instance permanently unsatisfiable. *)

val add_clause_shifted : t -> int -> int array -> unit
(** [add_clause_shifted t k lits] is [add_clause t] of [lits] with [k]
    added to every variable (signs kept): how a miter adds one more
    copy of a CNF template without building the shifted clauses. *)

val solve :
  ?assumptions:int list -> ?max_conflicts:int -> ?deadline:float -> t -> result
(** [Unknown] only when [max_conflicts] was exhausted or the
    {!Shell_util.Clock.now} [deadline] passed. The deadline is read
    every 256 conflicts of the call, so a search that is past it stops
    within 256 conflicts; a search that stops on its conflict cap first
    never reads the clock differently from one without a deadline. *)

val value : t -> int -> bool
(** Model value of a variable after [Sat] (unassigned vars read [false]). *)

val model : t -> bool array
(** Index [v] holds the value of variable [v]; index 0 unused. *)

val num_conflicts : t -> int
(** Total conflicts across all [solve] calls (attack effort metric). *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
}
(** Cumulative search effort across all [solve] calls on this solver. *)

val stats : t -> stats
