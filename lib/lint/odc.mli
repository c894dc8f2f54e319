(** Backward observability-don't-care (ODC) analysis.

    Computes, per net, whether its value can still be observed at any
    primary output under the proven constant facts. The result is a
    conservative over-approximation of true observability — a net
    marked [false] provably cannot affect any output by toggling alone,
    so the negation is safe to act on (the [key-odc-dead] lint rule and
    the redundancy attack's live-cell bound both do).

    Propagation starts at the primary outputs and walks cell reads
    backwards; a read is cut when one of the {e masking rules} proves
    it can never steer the cell's output:
    - a mux arm not selectable under a pinned select, or a select whose
      arms are the same net / the same proven constant;
    - an AND/NAND (OR/NOR) operand whose sibling is a proven
      controlling 0 (1);
    - an XOR/XNOR whose two operands are the same net (toggling flips
      both at once, output fixed);
    - a LUT input the residual (constant-cofactored) table no longer
      depends on, or one that is itself pinned;
    - any read by a cell whose output is a proven constant.

    Proven-constant nets are never observable (they carry no toggle).
    Sequential cells pass observability through (state influence
    counts). The result is the least set closed under these rules,
    computed by a worklist over nets: a net enters once, when it becomes
    observable, and then passes observability to the unmasked inputs of
    {e every} cell driving it (all drivers of a multi-driven net). The
    cost is one read per input of an observable cell, on cyclic and
    sequential netlists alike, with no topological order.

    Observable implies live: the analysis refines
    {!Dataflow.cones.live} with strictly more cuts. *)

type t = {
  observable : bool array;
      (** per net id: toggling it can still reach an output *)
  masked_reads : int;
      (** reads of observable cells cut by a masking rule (diagnostic) *)
  const_cuts : int;  (** nets cut as proven constants (diagnostic) *)
}

val input_masked :
  Dataflow.value array -> Shell_netlist.Cell.t -> int -> bool
(** [input_masked values c i]: the read of input position [i] of [c]
    is provably masked under the constant facts — toggling that input
    alone can never change [c]'s output. Shared with the key-taint
    propagation, which skips masked reads. *)

val masks : Dataflow.value array -> Shell_netlist.Netlist.t -> int array
(** Per cell index, the bitmask of its masked input positions: bit [i]
    is set iff [input_masked values c i]. Decided once per (cell, input)
    pair (a LUT cofactors its table once); the lint context computes it
    once and shares it between ODC, taint and the [masked_reads]
    count. *)

val analyze :
  ?values:Dataflow.value array ->
  ?masked:int array ->
  Shell_netlist.Netlist.t ->
  t
(** Run the analysis; [~values] defaults to {!Dataflow.const_values} and
    [~masked] to {!masks} over them (pass the context's to avoid
    recomputing either). *)
