(** Bit-parallel (word-level) netlist simulation: the one simulator
    of the flow and the attacks.

    One machine word per net, bit [l] carrying test vector [l]: one
    pass over the combinational cone evaluates up to {!width} vectors.
    Each lane must agree bit for bit with the scalar reference model
    in [lib/fuzz] (same topological order, same port-loading rules,
    same [Dff]/[Config_latch] machinery), which the [simw_vs_sim] fuzz
    oracle enforces on every net of every cycle.

    Keys and config bits are shared by every lane (broadcast words);
    [Dff] state is per-lane, so [lanes] parallel sequential runs
    evolve independently. Output and net read-outs are masked to the
    active lane count; internal nets may carry junk in higher lanes.

    Every evaluation counts into three stable {!Shell_util.Obs}
    counters: [sim_words] (+1), [sim_vectors] (+lanes) and
    [sim_cells_evaluated] (+ the combinational cells). They are a pure
    function of the simulation submitted, so they are byte-identical
    across SHELL_JOBS on deterministic workloads; a wall-clock-bounded
    workload (a SAT attack's DIP loop querying its oracle) submits a
    time-dependent amount. *)

type t

val width : int
(** Vectors per word: [Sys.int_size] (63 on 64-bit OCaml — the OCaml
    native int has 63 value bits, so "64-wide" batches span 2 words). *)

val create : ?config:bool array -> Netlist.t -> t
(** [config] gives per-[Config_latch] values in cell order (the order
    latches appear in the netlist), default all-false; each is
    broadcast to every lane. *)

val reset : t -> unit
(** Zero all [Dff] state in every lane. *)

val eval_comb : t -> ?keys:bool array -> ?lanes:int -> int array -> int array
(** [eval_comb t ~keys ~lanes ins] evaluates the combinational cone on
    [ins] (one word per primary input, declaration order) and returns
    one word per primary output, masked to [lanes] (default {!width},
    must be in \[1, width\]). [keys] (scalar, broadcast to all lanes)
    defaults to all-false and must match the key count. *)

val step : t -> ?keys:bool array -> ?lanes:int -> int array -> int array
(** {!eval_comb} plus the per-lane flop update: lane [l] of every
    [Dff] latches lane [l] of its data input. *)

val net_values : t -> lanes:int -> int array
(** All net words after the last evaluation, masked to [lanes]. *)

val num_config_latches : Netlist.t -> int
(** The [Config_latch] cells: the length {!create}'s [config] must
    have. *)

(** {1 Packing helpers} *)

val pack : bool array array -> int array
(** [pack vecs] packs 1..{!width} equal-length vectors into words: bit
    [l] of word [i] is [vecs.(l).(i)]. *)

val lane : int array -> int -> bool array
(** [lane words l] extracts vector [l]: [(lane (pack vecs) l) = vecs.(l)]. *)

val first_lane : int -> int
(** Index of the lowest set bit of a non-zero word — the earliest lane
    (in vector order) a miscompare word flags. *)

val mismatch : int array -> int array -> int
(** [mismatch a b] ORs the lane-wise XOR of two equal-length word
    arrays (two circuits' outputs on the same chunk): lane [l] is set
    iff the responses differ on vector [l]. *)

val popcount : int -> int
(** Set lanes of a word — with {!mismatch}, the number of vectors of a
    chunk on which two responses disagree. *)
