(** Gate-level cell kinds.

    Cells are single-output. Input ordering conventions:
    - [Mux2]: [[|sel; a; b|]], output is [a] when [sel] is low, [b] when high.
    - [Mux4]: [[|s0; s1; a; b; c; d|]], [{s1,s0}] selects [a..d].
    - [Lut tt]: inputs in truth-table variable order.
    - [Dff] / [Config_latch]: [[|d|]]; the output is the stored state.

    [Config_latch] is the FABulous-style configuration storage element:
    behaviourally a constant once the bitstream is loaded, but accounted
    differently by the cost model (paper, Table I). *)

type kind =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Mux2
  | Mux4
  | Lut of Shell_util.Truthtab.t
  | Const of bool
  | Dff
  | Config_latch

type t = {
  kind : kind;
  ins : int array;  (** driving nets, in the conventional order above *)
  out : int;  (** driven net *)
  origin : string;  (** hierarchical path tag, e.g. ["top/core2/_mem_wr"] *)
}

val make : ?origin:string -> kind -> int array -> int -> t
(** [make kind ins out] checks the input count against {!arity}. *)

val arity : kind -> int
(** Expected number of inputs, e.g. 3 for [Mux2]. *)

val is_sequential : kind -> bool
(** [Dff] and [Config_latch]. *)

val origin_matches : string list -> t -> bool
(** [origin_matches pats c]: some non-empty pattern of [pats] occurs as
    a substring of [c]'s origin (how ROUTE/LGC origin picks name
    cells). Allocates nothing. *)

val kind_name : kind -> string
(** Short stable mnemonic ("and2", "mux2", "lut4:cafe", ...). *)

val eval : kind -> bool array -> bool
(** Combinational function of the cell; must not be applied to
    sequential kinds. *)

val eval_in : kind -> bool array -> int array -> bool
(** [eval_in kind nets ins] is [eval kind (Array.map (Array.get nets) ins)]
    without the intermediate array. *)

val eval_word_in : kind -> int array -> int array -> int
(** [eval_word_in kind nets ins]: the word-level combinational function,
    reading operands [nets.(ins.(i))] straight from the net-value store.
    Each int carries one test vector per bit (bit-parallel simulation).
    Gates and muxes are plain bitwise ops; [Lut] tables evaluate by
    Shannon cofactor expansion in 2^arity - 1 word ops. Output bits
    beyond the lanes actually driven by the caller are unspecified;
    must not be applied to sequential kinds. *)

val pp : Format.formatter -> t -> unit
