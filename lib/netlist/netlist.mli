(** Flat gate-level netlists.

    A netlist owns a set of nets (dense integers), a list of cells, and
    three named port classes:
    - primary inputs,
    - primary outputs,
    - key inputs — the secret configuration bits of a locked design
      (ordinary inputs as far as structure goes, but attacks and
      simulation treat them specially).

    Invariant (checked by {!validate}): every net is driven by exactly
    one source (a port of class input/key, or a cell output), and every
    primary output names an existing net.

    A netlist memoizes three indexes over its nets and cells: the
    driver table ({!driver}), the fanout table ({!fanout}) and the
    evaluation order ({!topo_order}, which also remembers a cyclic
    result for {!has_comb_cycle}), plus its {!fingerprint}. Each is
    built on first use and cleared by {!new_net} (hence {!add_input},
    {!add_key} and the builders) and by {!add_cell}; {!add_output} and
    {!set_origin} clear only the fingerprint, the one memo that reads
    ports and origins. A memo is published only once it is fully
    built, so one netlist may be read from several domains at once
    (pool tasks, pass-cache hits) without any warming; a domain that
    loses the race to fill a memo builds the same value again. Mutating a netlist while another
    domain reads it is not supported. {!copy}, {!map_cells},
    {!filter_outputs} and {!comb_view} start with empty memos of their
    own. *)

type t

(** {1 Construction} *)

val create : string -> t
(** Empty netlist with the given module name. *)

val name : t -> string

val new_net : t -> int
(** Allocate a fresh net id. *)

val add_input : t -> string -> int
(** Declare a primary input; returns its net. *)

val add_key : t -> string -> int
(** Declare a key (configuration) input; returns its net. *)

val add_output : t -> string -> int -> unit
(** [add_output t nm net] exposes [net] as primary output [nm]. Raises
    {!Shell_util.Diag.Error} with a [Bad_net_id] payload when [net] is
    out of range. *)

val add_cell : t -> Cell.t -> unit
(** Append a cell. Raises [Invalid_argument] when a net it names is out
    of range, or when its input count is not {!Cell.arity} of its kind,
    as {!Cell.make} checks; so no stored cell has more than six inputs,
    however its record was built. *)

val set_origin : t -> int -> string -> unit
(** Retag cell [i]'s hierarchical origin (used by the netlist parser
    to restore origin annotations). *)

(** Convenience builders: allocate the output net, add the cell and
    return the output net. [origin] tags the cell's hierarchical path. *)

val gate : ?origin:string -> t -> Cell.kind -> int array -> int
val and_ : ?origin:string -> t -> int -> int -> int
val or_ : ?origin:string -> t -> int -> int -> int
val nand_ : ?origin:string -> t -> int -> int -> int
val nor_ : ?origin:string -> t -> int -> int -> int
val xor_ : ?origin:string -> t -> int -> int -> int
val xnor_ : ?origin:string -> t -> int -> int -> int
val not_ : ?origin:string -> t -> int -> int
val buf : ?origin:string -> t -> int -> int
val mux2 : ?origin:string -> t -> sel:int -> a:int -> b:int -> int
val mux4 : ?origin:string -> t -> s0:int -> s1:int -> int array -> int
val lut : ?origin:string -> t -> Shell_util.Truthtab.t -> int array -> int
val const : ?origin:string -> t -> bool -> int
val dff : ?origin:string -> t -> int -> int

(** {1 Access} *)

val num_nets : t -> int
val num_cells : t -> int
val cells : t -> Cell.t array
(** The cells in index order: the netlist's own array, shared by every
    caller (and every domain) and to be treated as read-only, like
    {!topo_order}'s. The first call after {!add_cell} trims the backing
    array to length (one copy); a second call allocates nothing and
    returns the same array. The next {!add_cell} or {!set_origin}
    copies before it writes, and {!copy} and {!map_cells} leave it
    alone, so an array once handed out never changes. *)

val cell : t -> int -> Cell.t
val inputs : t -> (string * int) list
(** In declaration order. *)

val outputs : t -> (string * int) list
val keys : t -> (string * int) list
val input_nets : t -> int array
val output_nets : t -> int array
val key_nets : t -> int array

val driver : t -> int -> int option
(** [driver t net] is the index of the cell driving [net] (the last
    one, when several drive it), or [None] for port-driven / floating
    nets and ids outside [0, num_nets). O(1) once the memoized driver
    table is built. *)

val driver_index : t -> int -> int
(** {!driver} without the option: the cell index, or [-1]. Allocates
    nothing, for loops over every read of a design. *)

val fanout : t -> int -> int list
(** Indices of cells reading [net], in cell order (a cell reading it
    twice appears twice); [[]] for ids outside [0, num_nets). The
    memoized fanout table's own list: nothing is copied. *)

val copy : t -> t
(** Independent netlist with the same nets, ports and cells, and empty
    memos. The two share one cell array until either is mutated, which
    copies it once. *)

val map_cells : t -> (int -> Cell.t -> Cell.t) -> t
(** Fresh netlist with cell [i] replaced by [f i cell]; nets, ports and
    numbering are untouched. The replacement must keep the original
    output net (and in-range input nets) or the result will not
    validate. The fuzzer's fault injector and shrinker are the
    intended users. Raises [Invalid_argument] on a replacement whose
    input count is not {!Cell.arity} of its kind, as {!add_cell}
    does. *)

val filter_outputs : t -> (string -> bool) -> t
(** Fresh netlist keeping only the primary outputs whose name satisfies
    the predicate (declaration order preserved). *)

(** {1 Analysis} *)

(** Structural defects {!validate} detects, carried as the typed
    payload ({!Shell_util.Diag.payload}) of its diagnostic. *)
type invalid =
  | Bad_net_id of { port : string; net : int }
      (** a port names a net outside [0, num_nets) *)
  | Duplicate_port of { port : string }
      (** two ports of the same class share a name *)
  | Multiple_drivers of { net : int; drivers : int }
  | Undriven_output of { port : string; net : int }
      (** dangling output: the named output reads a floating net *)
  | Undriven_read of { net : int }
      (** a cell input reads a floating net *)

type Shell_util.Diag.payload += Invalid of invalid

val validate : t -> (unit, Shell_util.Diag.t) result
(** Check the single-driver invariant and port sanity. The error's
    payload is [Invalid _]; its context stack is
    [["validate"; module-name]]. Thin wrapper over {!validate_all}
    returning the first violation. *)

val validate_all : t -> Shell_util.Diag.t list
(** Exhaustive form of {!validate}: every violation, in deterministic
    order — port-sanity defects first (inputs, keys, outputs, each in
    declaration order), then multi-driven nets by ascending net id,
    undriven outputs in declaration order, and finally undriven reads
    by ascending net id. [[]] iff the netlist is well-formed. *)

val fingerprint : t -> string
(** 64-bit structural hash (hex) over nets, ports and cells — the pass
    pipeline's cache key ingredient. Equal netlists (same construction
    order) have equal fingerprints; the hash covers cell kinds, LUT
    truth tables, connectivity, origins and port names. FNV-1a folded
    in place: one linear scan that allocates only its 8-byte state and
    the result, done once per netlist state (memoized like the indexes
    above; a later call returns the same string). The digests are part
    of the spill store's keys, so a change to them orphans every
    stored product. *)

val topo_order : t -> int array
(** Indices of all cells in topological order, where sequential cell
    outputs count as sources. Raises [Failure] if the combinational
    part is cyclic. Sorted once per netlist state and memoized: the
    returned array is shared by every caller (and every domain) and
    must be treated as read-only. *)

val has_comb_cycle : t -> bool
(** The combinational part is cyclic: {!topo_order} would raise.
    Answered from the same memo. *)

val order_memoized : t -> bool
(** The memo behind {!topo_order} and {!has_comb_cycle} holds the
    current state's answer, so the next call sorts nothing. A probe: it
    never sorts. *)

val comb_view : t -> t
(** Full-scan view per the threat model: every [Dff] is removed, its
    output becomes a primary input ["scan_in_k"] and its input is
    exposed as primary output ["scan_out_k"]. [Config_latch]es are kept
    (they hold the bitstream, which is the attack target). *)

val stats : t -> (string * int) list
(** Cell-kind histogram, e.g. [("mux2", 185); ("dff", 12); ...]. *)

val count_kind : t -> (Cell.kind -> bool) -> int

val pp : Format.formatter -> t -> unit
