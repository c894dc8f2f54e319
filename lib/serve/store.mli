(** Content-addressed on-disk blob store for the pass-cache spill.

    Keys are hashed (MD5) into a two-level sharded layout under the
    root directory; blobs are opaque bytes. Writes are atomic
    (tmp + rename). Eviction is manual: delete the directory — the
    pipeline treats any unreadable/corrupt blob as a cache miss. *)

type t

val create : root:string -> t
(** Creates the root directory (and parents) if missing. *)

val root : t -> string
val save : t -> string -> string -> unit
(** [save t key blob] writes [blob] under [key], atomically (tmp file
    + rename). Raises [Sys_error] when the write or the rename fails,
    after removing its tmp file. *)

val load : t -> string -> string option

val entries : t -> int
(** Number of stored blobs (directory scan; for status/tests). *)

type gc_report = {
  scanned : int;  (** blobs found in the store *)
  scanned_bytes : int;  (** their total size before eviction *)
  deleted : int;
  reclaimed_bytes : int;
}

val gc : t -> max_bytes:int -> gc_report
(** Size-capped LRU pruning: when the store holds more than
    [max_bytes], delete blobs least-recently-read first (access time,
    path as a deterministic tie-break on coarse-atime filesystems)
    until the total is back under the cap. A deleted blob simply
    becomes a pipeline cache miss. Unremovable files are skipped but
    still counted as evicted space, so the loop terminates. *)

val pp_gc_report : Format.formatter -> gc_report -> unit

val pipeline_store : t -> Shell_core.Pipeline.store

val attach : t -> unit
(** [Pipeline.set_store] wiring: warm pass-cache misses consult this
    store, and published products spill into it. *)

val detach : unit -> unit
