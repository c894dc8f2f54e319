(** SAT-attack miter construction.

    Two copies of the locked circuit share their primary inputs and
    carry independent key vectors; an activation literal turns on the
    "some output differs" constraint. Distinguishing-input-pattern
    (DIP) constraints append two more circuit copies each, tied to the
    respective key vectors — the classic oracle-guided construction of
    Subramanyan et al. *)

type t

val create :
  ?cycle_blocks:(int array * bool array) list ->
  ?seed:int ->
  Shell_netlist.Netlist.t ->
  t
(** [create locked] — sequential designs are attacked through their
    full-scan view. [cycle_blocks] adds the cyclic-reduction
    pre-processing clauses (key patterns that would close structural
    combinational cycles are excluded for both key vectors). [seed]
    perturbs the solver's initial phases (see {!Shell_sat.Solver.create});
    the attack portfolio races several seeds. *)

val num_keys : t -> int

val find_dip :
  ?max_conflicts:int ->
  ?deadline:float ->
  t ->
  [ `Dip of bool array | `Unsat | `Budget ]
(** Search for an input distinguishing two keys consistent with all
    constraints so far; [`Budget] when [max_conflicts] ran out or the
    [deadline] ({!Shell_sat.Solver.solve}) passed. *)

val add_dip : t -> bool array -> bool array -> unit
(** [add_dip t input oracle_output] — both key vectors must now
    reproduce the oracle on this input. *)

val extract_key :
  ?max_conflicts:int -> ?deadline:float -> t -> bool array option
(** Any key consistent with all recorded DIPs (sound exactly when
    {!find_dip} returned [`Unsat]). *)

val conflicts : t -> int
(** Cumulative solver conflicts (the attack-effort metric). *)

val stats : t -> Shell_sat.Solver.stats
(** Full search-effort breakdown of the underlying solver. *)
