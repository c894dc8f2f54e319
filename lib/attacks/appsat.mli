(** AppSAT-style approximate SAT attack (Shamsi et al.).

    The exact attack's DIP loop ({!Sat_attack.dip_loop}, so its solver
    calls are counted and traced like the exact attack's), with an
    early exit through the loop's settle hook: every
    {!settle_every} DIPs it extracts a key consistent with the
    constraints so far and estimates its error rate by word-parallel
    random sampling against the activated chip; {!settle_target}
    consecutive zero-error candidates end the attack. On SAT-resilient
    but approximation-weak schemes this recovers an (almost-)correct
    key long before the DIP loop converges; here a settled candidate is
    additionally put through {!Attack.checked_broken}, so [Broken] still
    means exactly equivalent — a settled-but-inequivalent candidate
    resets the settle counter and the loop continues.

    When the DIP loop reaches [`Unsat] before settling, the exact
    endgame runs (key extraction under the remaining conflict budget),
    so AppSAT breaks everything the exact attack breaks within the same
    budget — [detail] reports ["exact"] = 1 for that path, and
    ["err_vectors"] carries the last candidate's sampled error. *)

val settle_every : int
(** Extraction cadence in DIPs (4). *)

val settle_target : int
(** Consecutive zero-error candidates required to stop (3). *)

val attack : Attack.t
(** Registered as ["appsat"]. [Inapplicable] on zero key bits; cyclic
    locked netlists are handled by specializing each candidate before
    sampling (candidates that stay cyclic reset the settle counter). *)
