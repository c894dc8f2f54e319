(** The regression gate: diff a fresh record against the last committed
    one for the same target.

    Stable counters and span aggregates must match {e exactly} — they
    are deterministic by the Obs contract, so any drift is a real
    behavioural change (more solver conflicts, a lost cache hit, an
    extra pass), not noise. An intentional change is declared by
    re-recording the history in the same change. Wall times, which are
    machine noise, are informational and never compared. *)

type change = {
  key : string;
  baseline : int option;  (** [None]: key absent from the baseline *)
  current : int option;  (** [None]: key vanished *)
}

type report = {
  target : string;
  baseline_commit : string;
  counters : change list;  (** counter keys that differ *)
  spans : change list;  (** span-aggregate keys that differ *)
}

type Shell_util.Diag.payload += Perf_drift of report
(** Attached to the diagnostic a failing [--check] raises; a printer
    is registered at module load. *)

val diff : baseline:Record.t -> Record.t -> report
(** Compare the stable parts key by key. *)

val ok : report -> bool
(** No counter or span change. *)

val to_diag : report -> Shell_util.Diag.t
(** A [Perf_drift]-carrying diagnostic summarizing the report. *)

val pp : Format.formatter -> report -> unit
(** Human-readable drift table ([old -> new] per key). *)
