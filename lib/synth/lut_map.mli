(** Cut-based k-LUT technology mapping (the first Yosys call of the
    paper's step 5: LUT-based synthesis of the LGC sub-circuit).

    Combinational logic is covered with [Lut] cells of at most [k]
    inputs using priority-cut enumeration (depth-oriented, area-aware
    tie-break). Sequential cells pass through unchanged. Cells whose
    input count exceeds [k] (e.g. [Mux4] when [k < 6]) are kept as
    mapping boundaries. *)

type stats = {
  luts : int;
  levels : int;  (** LUT network depth *)
  kept_cells : int;  (** non-LUT cells preserved (seq + boundaries) *)
}

val map :
  ?k:int ->
  ?boundary:(Shell_netlist.Cell.t -> bool) ->
  Shell_netlist.Netlist.t ->
  Shell_netlist.Netlist.t * stats
(** [k] defaults to 4 (the paper's CLB LUT width). Cells satisfying
    [boundary] (default: none) are preserved as mapping boundaries in
    addition to the structural ones — the SheLL flow passes the
    chain-packed ROUTE muxes here so LUT covering does not re-absorb
    them. Raises [Invalid_argument] when [k] is not in [2..6]. *)
