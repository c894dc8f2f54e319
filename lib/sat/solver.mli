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
    model. Its state is flat arrays: literal values by literal, every
    clause in one int arena, per-variable arrays sized together. A
    propagation allocates nothing, and a conflict allocates nothing
    unless the arena has to grow. *)

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

val reserve : t -> int -> unit
(** [reserve t n] sizes every per-variable and per-literal array for
    variables [1..n] now, without creating them. Growth past the
    reserved room doubles the arrays; a caller that knows how many
    variables are coming (a miter's first circuit copies) reserves them
    in one step instead of doubling up from a handful of slots. *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Clauses over existing variables; any other literal raises
    [Invalid_argument "Solver.add_clause: bad literal"]. The clause is
    simplified against the level-0 assignment (a unit is propagated at
    once). Adding a clause that is already falsified at level 0 makes
    the instance permanently unsatisfiable. *)

val add_clauses : ?shift:int -> t -> int array -> unit
(** [add_clauses ~shift t flat] is [add_clause] of each clause packed in
    [flat], in order: a clause is its literal count followed by its
    literals. [shift] (default 0, never negative) is added to every
    variable, signs kept: how a miter adds one more copy of a CNF
    template without building the shifted clauses. A bad literal raises
    as in [add_clause], with the clauses before it added. *)

val solve :
  ?assumptions:int list -> ?max_conflicts:int -> ?deadline:float -> t -> result
(** Every assumption must be a literal over the existing variables,
    else [Invalid_argument "Solver.solve: bad assumption"] is raised
    before the search starts.

    [Unknown] only when [max_conflicts] was exhausted or the
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
