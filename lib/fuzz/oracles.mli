(** The differential oracle battery.

    An oracle is one adversarial cross-check of two independent
    implementations of "the same function": simulation vs the Tseitin
    CNF encoding, a rewrite pass vs {!Shell_netlist.Equiv}, the full
    lock pipeline vs the original design, an emitted text format vs
    its parser. Each oracle also knows how to run its comparator
    against a netlist with an injected fault ({!Inject}), which is how
    the self-test proves the comparator is not vacuously green.

    Verdicts are three-valued: [Skip] records an oracle that could not
    exercise the case (e.g. the pipeline's PnR legitimately aborting
    on a degenerate selection) without hiding it from the report. *)

type verdict =
  | Pass
  | Fail of string  (** the differential witness, human-readable *)
  | Skip of string  (** oracle not exercisable on this case *)

type t = {
  name : string;
  stream : int;
      (** numbers the oracle's RNG streams: case [i] runs it under
          child [1 + 2 * stream] of the case RNG, its self-test
          injection under child [2 + 2 * stream]. Distinct across
          oracles and never reused once an oracle is retired, so
          adding, dropping or running one oracle alone moves no other
          oracle's draws. *)
  description : string;
  applies : Gen.shape -> bool;
      (** static applicability; inapplicable oracles are not run *)
  run : Shell_util.Rng.t -> Shell_netlist.Netlist.t -> verdict;
      (** the differential check; must be deterministic in (rng state,
          netlist) *)
  inject :
    Shell_util.Rng.t ->
    Shell_netlist.Netlist.t ->
    (string * verdict) option;
      (** self-test: rerun the comparator against a single-fault
          mutant. The label names the injected fault class
          ({!Inject.mutation}[.label], e.g. ["lut-bit-flip"]), so the
          runner can tally per-class coverage. [Some (_, Fail _)]
          means the fault was caught; [Some (_, Pass)] means the
          oracle is blind to it; [None] when no fault was
          injectable. *)
}

val all : t list
(** Every oracle, in report order. *)

val find : string -> t option
val names : string list
