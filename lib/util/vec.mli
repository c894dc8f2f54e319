(** Growable arrays (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map : ('a -> 'b) -> 'a t -> 'b t
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
(** A fresh copy of the elements. *)

val contents : 'a t -> 'a array
(** The elements as an array shared with the vector: the backing array,
    trimmed to the length on the first call after a write, so a second
    call allocates nothing and returns the same array. The vector
    copies before its next [push] or [set], so an array handed out never
    changes. Callers must not write into it. *)

val copy : 'a t -> 'a t
(** An independent vector with the same elements. It shares
    {!contents} with the original until either one is written. *)

val to_list : 'a t -> 'a list
val of_array : 'a array -> 'a t
val of_list : 'a list -> 'a t
