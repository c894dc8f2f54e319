(** Key binding by cycle-tolerant constant propagation.

    Locked netlists from cyclic fabric styles can contain structural
    combinational cycles through decoy routing, so they cannot be
    topologically ordered until the configuration is applied. This pass
    substitutes constants for the key inputs and folds muxes/gates to a
    fixpoint *without* requiring an order; with a cycle-free
    configuration (any correct bitstream) the result is an ordinary
    acyclic netlist with no key ports. *)

val bind_keys : Netlist.t -> bool array -> Netlist.t
(** [bind_keys locked key] — [key] in {!Netlist.keys} order. The result
    has the same primary inputs/outputs and no keys. Raises
    [Invalid_argument] on a length mismatch.

    Folding sweeps the cells in index order until a sweep learns
    nothing; it allocates nothing per cell. Liveness is then computed
    on the folded view (a cell lives when a primary output or a
    sequential cell depends on it), and the result is built once, from
    the live cells only: net for net the netlist that rebuilding without
    the folded cells and then {!Rewrite.dead_cell_elim} would give. It
    has at most one constant cell per polarity, placed just before the
    first unfolded cell with a net of that constant, or after every
    cell when only outputs read it. *)
