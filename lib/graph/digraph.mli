(** Directed graphs over dense integer nodes. *)

type t

val make : n:int -> edges:(int * int) list -> t
(** Duplicate edges are kept once; self-loops are allowed. *)

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

val sccs : t -> int list list
(** Tarjan's strongly connected components, in reverse topological
    order of the condensation; each lists its nodes in discovery
    order. *)

val iter_csr_sccs :
  off:int array -> adj:int array -> (int array -> int -> int -> unit) -> unit
(** The search under {!sccs}, on the graph of [Array.length off - 1]
    nodes whose node [u] has the successors [adj.(off.(u))] ..
    [adj.(off.(u + 1) - 1)], in that order ([off.(0) = 0], [off]
    non-decreasing; repeated edges and self-loops allowed). It builds
    no lists: [f stack lo hi] is called once per component, in
    {!sccs}'s order, with the component's nodes in [stack.(lo)] ..
    [stack.(hi - 1)] in discovery order. The array is the search's
    own: read it before returning, never keep or change it. *)
