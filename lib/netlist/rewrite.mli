(** Structural netlist rewrites.

    All functions return a fresh netlist; ports keep names and order.
    Net ids are renumbered compactly. *)

val sweep_buffers : Netlist.t -> Netlist.t
(** Remove every [Buf] cell, reconnecting its readers (cells and
    primary outputs) to the buffer's input. A buffer that only aliased
    an output to an input port goes too: the output then names the
    port's net. *)

val dead_cell_elim : Netlist.t -> Netlist.t
(** Drop cells whose output cone reaches no primary output and no
    sequential element. *)

val clean : Netlist.t -> Netlist.t
(** [sweep_buffers] then [dead_cell_elim]. *)
