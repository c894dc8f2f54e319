(** Redundancy attack: wrong key values leave provably redundant logic.

    Pure structure, no oracle. For each key bit the locked netlist is
    re-analyzed with the bit pinned to 0 and to 1
    ({!Shell_lint.Dataflow.const_values} with [~pins], constants
    flowing through the configuration plane), and each pinning is
    scored by how many {e live} cells survive — output not proven
    constant and still observable under the {!Shell_lint.Odc} masking
    rules. A pinning that kills strictly more live cells than the
    unpinned baseline is voted against: the correct key restores the
    original function, wrong values degenerate the locking gates and
    orphan their fanin. A bit is decided when exactly one of its
    pinnings draws the vote; undecided bits default to 0 in the
    assembled key, which is only claimed after
    {!Attack.checked_broken} verification. When {e no} bit can be
    decided the verdict is [Resilient] — the structure leaks nothing
    to this analysis, and guessing noise would be pointless.

    This is the attack the [scope-leak]/[key-odc-dead] lint rules warn
    defenders about, run from the redundancy side. *)

val attack : Attack.t
(** Registered as ["redundancy"]. [recovered_bits] counts the decided
    bits; [detail] carries [base_live] and the decided/undecided
    split. Checks [time_limit] between bits;
    [max_dips]/[max_conflicts]/[vectors] are ignored. *)
