(** Bit-parallel (word-level) netlist simulation.

    One machine word per net, bit [l] carrying test vector [l]: one
    pass over the combinational cone evaluates up to {!width} vectors.
    The engine mirrors {!Sim}'s contract — same topological order,
    same port-loading rules, same [Dff]/[Config_latch] machinery — so
    the two are drop-in interchangeable and must agree bit for bit
    (enforced by the [simw_vs_sim] fuzz oracle).

    Keys and config bits are shared by every lane (broadcast words);
    [Dff] state is per-lane, so [lanes] parallel sequential runs
    evolve independently. Output and net read-outs are masked to the
    active lane count; internal nets may carry junk in higher lanes. *)

type t

val width : int
(** Vectors per word: [Sys.int_size] (63 on 64-bit OCaml — the OCaml
    native int has 63 value bits, so "64-wide" batches span 2 words). *)

val create : ?config:bool array -> Netlist.t -> t
(** [config] gives per-[Config_latch] values in cell order, as in
    {!Sim.create}; each is broadcast to every lane. *)

val netlist : t -> Netlist.t

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
