(** The oracle-guided SAT attack (Subramanyan et al. [6]), with
    optional cyclic-reduction pre-processing [26].

    The attacker holds the locked netlist and black-box access to an
    activated chip (the oracle); scan access reduces sequential designs
    to combinational ones. The attack alternates DIP search and oracle
    queries until no distinguishing input remains, then extracts a key
    that is functionally correct by construction.

    Budgets stand in for the paper's 48-hour timeout: an attack that
    exhausts its DIPs, conflicts or wall-clock budget is [Resilient] —
    the "resilient" verdict of Tables IV–VI.

    {!dip_loop} is the one DIP loop of the library: the exact attack
    runs it plain, {!Appsat} through its per-DIP settle hook, and the
    {!Portfolio} races {!run} under several solver seeds. *)

val run : ?solver_seed:int -> Attack.budget -> Attack.subject -> Attack.verdict
(** [run budget subject] attacks the subject's locked netlist under its
    [cycle_blocks], with the original as oracle. [solver_seed] perturbs
    the solver's initial phases (0, the default, is MiniSat's
    all-false). The extracted key goes through {!Attack.checked_broken}.
    Stats: [iterations] = [oracle_queries] = DIPs; the solver's
    decisions, propagations and restarts ride in [detail]. The search
    goes through {!Attack.shared_search}, so within one battery run a
    (subject, solver seed, budget) search runs once; each search run
    counts one [attack_runs] and opens a ["sat_attack"] span. *)

val attack : Attack.t
(** {!run} at the default seed, registered in {!Battery.all} as
    ["sat"]. *)

(** {1 The DIP loop} *)

(** How a {!dip_loop} ended. *)
type ending =
  | Key of bool array
      (** no distinguishing input left: a key consistent with every DIP *)
  | Out_of_budget  (** DIP, conflict or time cap hit, or key extraction failed *)
  | Settled of Attack.verdict  (** the settle hook ended the loop *)

val dip_loop :
  Attack.budget ->
  start:float ->
  oracle:(bool array -> bool array) ->
  settle:(int -> Attack.verdict option) ->
  Miter.t ->
  ending * int
(** [dip_loop budget ~start ~oracle ~settle miter] searches DIPs, asks
    the oracle and constrains the miter until none is left or the
    budget ([start] is the attack's {!Shell_util.Clock.now} origin)
    runs out; returns how it ended and the number of DIPs added. The
    wall-clock budget is also each solver call's deadline
    ({!Shell_sat.Solver.solve}), so a call stops within 256 conflicts
    of it rather than at its conflict cap. After
    each DIP, [settle dips] may end the loop with a verdict. Each solver
    call counts in [attack_dis_iterations] and opens a ["dip"] span
    when telemetry is on. *)
