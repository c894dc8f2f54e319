(** Offline LUT-requirement estimation (the paper's LuTR attribute).

    Step 2 of the SheLL flow scores every node by the LUT resources its
    logic would need. Running the full LUT mapper per node would be
    accurate but slow (paper, footnote 4), so — exactly like the
    paper — scores come from an offline per-gate-type database;
    {!Lut_map.map}'s LUT count is the accurate form. *)

val luts_per_kind : Shell_netlist.Cell.kind -> float
(** Estimated share of a [k=4] LUT one cell of this kind occupies. *)

val estimate_cells : Shell_netlist.Netlist.t -> int list -> float
(** Estimated LUT count for a set of cell indices. *)
