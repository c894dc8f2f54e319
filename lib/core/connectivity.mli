(** Step 1–2 of the SheLL flow: connectivity and modular analysis.

    The flattened netlist (already uniquified by elaboration) is
    grouped by origin tag into blocks — instance paths at SoC level,
    [@always] blocks at IP level; a directed block graph captures
    inter-block wiring; every block gets the Table II attribute
    vector. Plays the role of the FIRRTL-based graph extraction of the
    paper. *)

type block = {
  name : string;  (** origin tag; [""] collects untagged cells *)
  cells : int list;  (** cell indices in the analyzed netlist *)
  attrs : Score.attrs;
  route_fraction : float;  (** mux/buffer share of the block *)
  lut_estimate : float;  (** LuTR (unnormalized) *)
}

type t = {
  blocks : block array;
  graph : Shell_graph.Digraph.t;  (** nodes = block indices *)
}

val analyze : Shell_netlist.Netlist.t -> t

val block_index : t -> string -> int option
(** First block whose name contains the given substring. *)

val blocks_matching : t -> string -> int list
(** All blocks whose name contains the substring. *)

val distance : t -> int list -> int array
(** Undirected node distance from a block set (Table VII's
    "node-based distance between LGC and ROUTE"). *)

val coverage : t -> int list -> float
(** Fraction of blocks connected (either direction) to the set —
    selection rule (ii) of the paper. *)
