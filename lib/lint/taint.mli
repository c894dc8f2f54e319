(** Forward key-influence taint lattice.

    Per net, the bitset of key bits whose value can still functionally
    reach it. Key ports seed their own bit; cells union the taint of
    their inputs into their output, except that

    - a proven-constant net contributes and accumulates nothing (its
      value is fixed, so no key influence flows through it), and
    - a read that {!Odc.input_masked} proves can never steer the cell
      contributes nothing (unselected mux arms, cofactored-away LUT
      inputs, operands masked by a controlling constant).

    The result over-approximates true functional influence: an output
    whose taint set is {e empty} provably does not depend on any key
    bit — its cone is attacker-simulable without the key (the
    [key-taint-collapse] lint rule). Sequential cells pass taint
    through (state influence counts).

    The least fixpoint is reached by sweeps in topological order (index
    order on cyclic netlists), repeated until one changes nothing. A
    sweep skips each cell none of whose unmasked inputs grew since the
    cell's last visit: the first sweep covers only the key fanout cone,
    later ones only the cells behind a change, and the sweeps end where
    unskipped ones would. A per-net FIFO worklist loses here: every
    partial growth re-ORs up to [w] words into each reader. *)

type t = {
  nkeys : int;
  w : int;  (** bitset words per net *)
  words : int array;  (** net-major bitset matrix, [n * w] *)
}

val analyze :
  ?values:Dataflow.value array ->
  ?masked:int array ->
  Shell_netlist.Netlist.t ->
  t
(** [~values] defaults to {!Dataflow.const_values} and [~masked] to
    {!Odc.masks} (pass the context's to avoid recomputing them). The
    sweeps follow the netlist's memoized topological order, or index
    order when it is cyclic. *)

val reach :
  ?values:Dataflow.value array ->
  ?masked:int array ->
  Shell_netlist.Netlist.t ->
  bool array
(** Per net, whether any key bit reaches it: [not (is_empty (analyze nl)
    net)] for every net, from the same sweeps over a single bit seeded
    at every key net (a union is empty exactly when each operand is).
    What the lint context keeps: [key-taint-collapse] reads only
    emptiness. *)

val tainted : t -> net:int -> bit:int -> bool
(** Key bit [bit] can still reach [net]. *)

val is_empty : t -> int -> bool
(** No key bit reaches this net. *)

val net_taint : t -> int -> int list
(** Ascending list of key-bit indices reaching the net. *)

val count : t -> int -> int
