(** Simulation-based equivalence checking.

    Complete SAT-based equivalence lives in [shell_attacks.Miter]; this
    module provides the fast vector-based checks the flow uses as
    sanity gates (exhaustive for small input counts, random sampling
    otherwise). *)

type verdict =
  | Equivalent  (** proven (exhaustive) or not refuted (sampled) *)
  | Counterexample of bool array  (** differing primary-input vector *)

val exhaustive_limit : int
(** Input counts up to this bound are checked exhaustively (16). *)

val check :
  ?vectors:int ->
  ?rng:Shell_util.Rng.t ->
  ?keys_a:bool array ->
  ?keys_b:bool array ->
  Netlist.t ->
  Netlist.t ->
  verdict
(** [check a b] compares primary outputs of [a] and [b] on identical
    primary-input vectors (sequential designs are compared through
    {!Netlist.comb_view}, matching the full-scan threat model). Port
    counts must agree. [vectors] (default 256) bounds the sample size in
    random mode. *)

val check_sequential :
  ?cycles:int ->
  ?runs:int ->
  ?rng:Shell_util.Rng.t ->
  ?keys_a:bool array ->
  ?keys_b:bool array ->
  Netlist.t ->
  Netlist.t ->
  verdict
(** Clocked black-box comparison: drive both designs with the same
    random input sequences from reset and compare primary outputs every
    cycle. Unlike {!check}, this does not rely on matching scan-port
    order, so it works across restructured sequential designs (e.g.
    after region splicing). [runs] sequences (default 16) of [cycles]
    steps (default 32). *)
