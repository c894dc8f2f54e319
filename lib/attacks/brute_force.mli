(** Brute-force key sweep — the baseline every scheme must clear.

    Enumerates the full keyspace (keys of at most {!max_key_bits} bits)
    against a fixed set of test vectors, word-parallel on both sides:
    the candidate simulates through {!Shell_netlist.Simw} and the
    activated-chip responses are precomputed once with the word oracle.
    Vectors are exhaustive when the input space allows (<= 12 inputs),
    sampled otherwise; a surviving candidate is verified through
    {!Attack.checked_broken} before being reported.

    A scheme this attack breaks within budget has an effectively empty
    keyspace no matter how SAT-resilient it is — the paper's keyspace
    column, measured instead of counted. *)

val max_key_bits : int
(** 20 — beyond this the sweep is [Inapplicable] (report says so). *)

val attack : Attack.t
(** Registered as ["brute"]. Honors [vectors] and [time_limit];
    [Inapplicable] on zero or > {!max_key_bits} key bits and on cyclic
    locked netlists (no word simulation). *)
