(** Bit-vector expressions of the RTL intermediate representation.

    This IR plays the role FIRRTL plays in the paper's flow: a small,
    easily-graphed representation between the design entry and the
    gate-level netlist. Widths are inferred bottom-up; [width_exn]
    reports mismatches. *)

type t =
  | Var of string
  | Lit of { width : int; value : int64 }
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Add of t * t
  | Sub of t * t
  | Eq of t * t
  | Lt of t * t  (** unsigned *)
  | Mux of t * t * t  (** [Mux (cond, then_, else_)], cond 1 bit wide *)
  | Concat of t * t  (** [Concat (hi, lo)] *)
  | Slice of t * int * int  (** [Slice (e, hi, lo)], inclusive *)
  | Reduce_and of t
  | Reduce_or of t
  | Reduce_xor of t

exception Width_error of string

val width_exn : env:(string -> int) -> t -> int
(** [env] gives declared signal widths; raises {!Width_error} on
    inconsistent operands or unknown variables. *)

val vars : t -> string list
(** Free variables, each once, in first-use order. *)

(** Convenience constructors. *)

val var : string -> t
val lit : width:int -> int -> t
val bit0 : t
val ( &: ) : t -> t -> t
val ( |: ) : t -> t -> t
val ( ^: ) : t -> t -> t
val ( ~: ) : t -> t
val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( ==: ) : t -> t -> t
val ( <: ) : t -> t -> t
val mux : t -> t -> t -> t
val concat : t list -> t
(** [concat [hi; ...; lo]]; requires a non-empty list. *)

val slice : t -> int -> int -> t
val bit : t -> int -> t

val pp : Format.formatter -> t -> unit
