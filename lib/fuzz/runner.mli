(** Fuzz campaign driver.

    Fans the case stream out over {!Shell_util.Pool} with one child
    RNG per (case, oracle) pair, so a report is a pure function of
    [(seed, cases, oracle selection)] — byte-identical at any
    [SHELL_JOBS]. Failing cases are minimized by {!Shrink} inside the
    worker (the predicate replays the oracle under a copy of its
    original RNG) and optionally written as Verilog reproducers. *)

type failure = {
  case : int;  (** case index within the campaign *)
  oracle : string;
  shape : string;  (** rendered {!Gen.shape} of the original case *)
  message : string;  (** the differential witness *)
  netlist : Shell_netlist.Netlist.t;  (** minimized when shrinking is on *)
  shrink : Shrink.stats option;
  reproducer : string option;  (** path, when [out_dir] was given *)
}

type oracle_stat = {
  name : string;
  passed : int;
  failed : int;
  skipped : int;  (** inapplicable shapes + runtime skips *)
}

type report = {
  seed : int;
  cases : int;
  stats : oracle_stat list;  (** in {!Oracles.all} order *)
  failures : failure list;  (** in (case, oracle) order *)
}

val ok : report -> bool

val run :
  ?jobs:int ->
  ?oracles:Oracles.t list ->
  ?shrink:bool ->
  ?out_dir:string ->
  seed:int ->
  cases:int ->
  unit ->
  report
(** [out_dir] (created if missing) receives one
    [fuzz_<oracle>_s<seed>_c<case>.v] reproducer per failure. An oracle
    named twice in [oracles] runs once, at its first place; {!self_test}
    does the same. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Self-test}

    Mutation injection: rerun every oracle's comparator against
    single-fault mutants ({!Inject}) and demand each one catches its
    fault class at least once — the proof the battery is not
    vacuously green. *)

type self_stat = {
  oracle : string;
  attempts : int;  (** mutants the comparator was run against *)
  caught : int;  (** comparator returned [Fail _] *)
  missed : int;  (** comparator returned [Pass] (fault masked) *)
  classes : (string * (int * int)) list;
      (** per fault-class (caught, missed), sorted by label *)
}

val self_test :
  ?jobs:int -> ?oracles:Oracles.t list -> seed:int -> cases:int -> unit -> self_stat list

val self_test_ok : self_stat list -> bool
(** Every oracle attempted at least one injection and caught at least
    one — and oracles with required fault classes (when present)
    demonstrably caught each: [lint] a LUT bit flip, a mux arm/sel
    swap and a gate negation; [simw_vs_sim] a LUT bit flip (the
    word-level cofactor path). *)

val pp_self_test : Format.formatter -> self_stat list -> unit
