(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic step of the framework (placement moves, random
    vectors, benchmark generation) draws from an explicit [t] so that
    whole-flow runs are reproducible from a single seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent clone with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val child : t -> int -> t
(** [child t i] derives an independent generator for index [i] from
    [t]'s {e current} state without advancing [t]: equal states and
    equal indices yield equal streams. This is how batch workers (the
    fuzzer's per-oracle streams) get reproducible randomness that does
    not depend on how many sibling streams were taken before them. *)

val split_n : t -> int -> t array
(** [split_n t n] advances [t] [n] times and returns [n] independent
    generators ([Array.init n (fun _ -> split t)]). *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool

val first_bool : int -> bool
(** [first_bool seed] is [bool (create seed)] without allocating a
    generator: the first draw of a stream, for callers that seed one
    stream per item and draw once from each. *)

val word : t -> int -> int
(** [word t n] packs [n] {!bool} draws into one machine word, draw [i]
    at bit [i] (0 <= n <= [Sys.int_size]). Byte-compatible with the
    scalar stream: the same state advance as [n] calls to {!bool}. *)

val vectors_packed : ?lanes:int -> t -> vectors:int -> bits:int -> int array array
(** [vectors_packed t ~vectors ~bits] draws [vectors] random
    [bits]-wide test vectors in vector-major order (the scalar draw
    order) and packs them into word chunks of up to [lanes] (default
    [Sys.int_size]) vectors each: in chunk [c], bit [l] of word [i] is
    bit [i] of vector [c * lanes + l]. Consumes exactly
    [vectors * bits] {!bool} draws. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniformly chosen element. Requires a non-empty array. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t n arr] draws [n] distinct elements (n <= length). *)
