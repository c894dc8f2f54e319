(** SCOPE-style per-key-bit constant-propagation scoring.

    Oracle-free key guessing by asymmetry: for each key bit, the
    3-valued constant propagation is re-run with the bit pinned to 0
    and to 1, and each run is scored by how many nets it newly proves
    constant (equivalently, how many driving cells fold away). A
    pinning that collapses {e more} logic than its sibling is the
    likelier {b wrong} value — correct keys leave the original
    function behind, wrong ones a degenerate residue. Symmetric gates
    (XOR/XNOR locking, balanced mux routing) collapse identically both
    ways and stay undecided: SCOPE's documented blind spot, and what
    the [scope-leak] lint rule checks a locked design for.

    The per-bit re-runs are incremental: pinning only adds facts and
    Kleene evaluation is monotone, so each run seeds one fact and
    propagates a worklist through the affected cone only. The unique
    least fixpoint makes the scores deterministic at any worklist
    order.

    By default the propagation uses [~config_through:true]
    ({!Dataflow.const_values}): eFPGA bitstream bits live behind
    [Config_latch] cells, and pinning must flow through the
    configuration plane to mean anything there. *)

type bit_score = {
  name : string;  (** key port name *)
  net : int;
  score0 : int;  (** nets newly proven constant with the bit pinned 0 *)
  score1 : int;  (** same, pinned 1 *)
}

val divergence : bit_score -> int
(** [abs (score0 - score1)] — 0 means the bit is SCOPE-undecidable. *)

val guess : bit_score -> bool option
(** The less-collapsing value, or [None] on a tie (undecided). *)

val scores :
  ?config_through:bool -> Shell_netlist.Netlist.t -> bit_score list
(** Per-bit scores in {!Shell_netlist.Netlist.keys} order. *)
