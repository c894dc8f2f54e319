(** Tseitin encoding of combinational netlists into CNF.

    Variables are positive integers; literal [-v] is the negation of
    [v]. The encoding allocates one variable per net. Netlists must be
    combinational ([Dff]-free — take {!Netlist.comb_view} first);
    [Config_latch] outputs are treated as free variables (they are the
    bitstream the attacker solves for). *)

type t = {
  nvars : int;
  clauses : int list list;
  var_of_net : int array;  (** net id -> CNF variable (1-based) *)
}

val encode : Netlist.t -> t

val var_of : int -> t -> int
(** CNF variable of a net. *)

val lit : t -> int -> bool -> int
(** [lit t net polarity] is the literal asserting net = polarity. *)
