(** Directed graphs over dense integer nodes. *)

type t

val make : n:int -> edges:(int * int) list -> t
(** Duplicate edges are kept once; self-loops are allowed. *)

val of_succs : int array array -> t
(** [of_succs succs]: node [u]'s successors are [succs.(u)], taken as
    given (the array is shared, not copied). The caller guarantees that
    each array is duplicate-free and in range; self-loops are allowed.
    Builds no edge list and no dedup table. *)

val n : t -> int
val num_edges : t -> int
val succs : t -> int -> int array
val preds : t -> int -> int array
val out_degree : t -> int -> int
val in_degree : t -> int -> int
val has_edge : t -> int -> int -> bool

val bfs_from : t -> ?reverse:bool -> int list -> int array
(** Multi-source BFS distances; unreachable nodes get [max_int].
    [reverse] follows edges backwards. *)

val reachable : t -> ?reverse:bool -> int list -> bool array

val coverage : t -> int list -> float
(** Fraction of all nodes reachable from the given set, following edges
    in both directions from each seed (the paper's "indirect connection"
    node coverage for selected nodes). *)

val topo_order : t -> int array option
(** [None] when cyclic. *)

val sccs : t -> int list list
(** Tarjan's strongly connected components, in reverse topological
    order of the condensation. *)

val is_cyclic : t -> bool
(** True when some SCC has more than one node or a self-loop exists. *)

val transpose : t -> t
