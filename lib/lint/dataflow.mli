(** The shared dataflow core under the lint rules.

    Three analyses, each computed once per linted subject and handed to
    every rule through the engine context:

    - {b forward constant/X propagation} ({!const_values}): a
      three-valued abstract simulation over nets. Sequential outputs
      ([Dff], [Config_latch]) are unknown; everything else folds
      through the cell semantics (mux arms collapse under a known
      select, LUTs are cofactored by their known inputs).
    - {b backward cones} ({!fanin_nets}): the set of nets in the fanin
      cone of a target set. Structurally, or — given the constant
      facts — {e functionally}, cutting traversal at proven-constant
      nets, unselected mux arms and LUT inputs the residual table does
      not depend on. A key bit inside the structural cone but outside
      the functional one is constant-blocked.
    - {b cycle detection} ({!cycles}): Tarjan SCCs over the cell graph,
      both the full combinational part and the MUX-only subgraph (the
      paper's non-cyclic ROUTE-chain invariant).

    Each reads the netlist's memoized evaluation order
    ({!Shell_netlist.Netlist.topo_order}, or index order when the
    combinational part is cyclic), so several analyses of one netlist
    sort it once. *)

type value = Zero | One | Unknown

val known : value -> bool option
(** [Some b] for a proven constant, [None] for [Unknown]. *)

val residual_table :
  Shell_util.Truthtab.t -> value array -> Shell_util.Truthtab.t
(** Fix the known inputs of a LUT table, leaving a residual over the
    unknown ones (in ascending original-input order). Shared by the
    functional cone walk, the ODC masking rules and the taint
    propagation. *)

val const_values :
  ?pins:(int * bool) list ->
  ?config_through:bool ->
  Shell_netlist.Netlist.t ->
  value array
(** Per-net constant facts, indexed by net id. Ports are [Unknown].
    Acyclic netlists are evaluated in one topological sweep; cyclic
    ones by a bounded monotone fixpoint (sound, possibly less
    precise).

    [~pins] seeds nets (typically key ports) with assumed constants
    before the sweep — the SCOPE-style analyses re-run the propagation
    with one key bit pinned each way. [~config_through:true] switches
    [Config_latch] to its post-configuration semantics: a known input
    (the bitstream bit) pins the stored state, so facts flow through
    the fabric's configuration plane; this forces the fixpoint path
    because the topological order places latches after their
    readers. *)

val eval_cell :
  ?config_through:bool -> value array -> Shell_netlist.Cell.t -> value
(** Three-valued evaluation of one cell under the given net facts.
    Sequential kinds return [Unknown], except [Config_latch] under
    [~config_through:true], which passes its input fact through. *)

val fanin_nets :
  ?values:value array ->
  Shell_netlist.Netlist.t ->
  int list ->
  bool array
(** [fanin_nets nl targets] marks every net in the structural fanin
    cone of [targets] (the targets included), walking backwards through
    cell drivers; sequential cells are traversed (state influence
    counts). With [~values] the walk is {e functional}: it stops at
    proven-constant nets and only descends into mux arms the select can
    still reach and LUT inputs the cofactored table still depends
    on. *)

(** {1 Output cones and key classification}

    Shared by the lint engine ({!Lint.make_ctx}) and the structural
    key-cone attack in [shell_attacks]: one forward constant sweep plus
    the structural and functional output cones. *)

type cones = {
  values : value array;  (** forward constant facts per net *)
  reach : bool array;  (** nets in the {e structural} output fanin cone *)
  live : bool array;  (** nets in the {e functional} cone (constant cuts) *)
}

val output_cones : Shell_netlist.Netlist.t -> cones
(** {!const_values} plus {!fanin_nets} (structural and functional) over
    the primary outputs. *)

(** What the dataflow facts prove about one key bit. *)
type key_fate =
  | Dead  (** outside the structural cone: reaches no output at all *)
  | Blocked
      (** wired towards the outputs but every path is cut by a proven
          constant (unselected mux arm, cofactored-away LUT input) *)
  | Live  (** may influence an output; nothing provable for free *)

val key_fates :
  ?cones:cones ->
  Shell_netlist.Netlist.t ->
  (string * int * key_fate) list
(** Per key bit [(name, net, fate)] in {!Shell_netlist.Netlist.keys}
    order. A [Dead] or [Blocked] bit provably cannot affect the
    function: any value unlocks it (the structural attack's "free"
    bits, and what the [key-dead]/[key-blocked] lint rules report). *)

(** {1 Cycles} *)

type cycles = {
  comb : int list list;
      (** non-trivial SCCs (size > 1, or a self-loop) of the
          combinational cell graph: edge [j -> i] when cell [j]'s output
          feeds cell [i] and neither is sequential *)
  mux : int list list;
      (** the same, restricted to edges between [Mux2]/[Mux4] cells
          through any input (select or data): cyclic MUX chains *)
}
(** Nodes are cell indices; each SCC is sorted ascending, and the lists
    are in ascending order of their smallest member. *)

val cycles : Shell_netlist.Netlist.t -> cycles
(** Both SCC lists. An acyclic netlist
    ({!Shell_netlist.Netlist.has_comb_cycle} false, read from the
    order memo) has both empty, and no graph is built. Otherwise the
    combinational graph is built once as CSR arrays from the driver
    table (the last driver of a multi-driven net, as in
    [N.topo_order]) and searched by
    {!Shell_graph.Digraph.iter_csr_sccs}; the MUX-only graph is its
    restriction to the MUX cells on a combinational cycle, numbered
    densely, built only when there are any. *)
