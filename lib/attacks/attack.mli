(** The typed interface every attack implements, and the only attack
    API.

    The locking literature judges a scheme against a {e battery} of
    attacks, not one; this module is the contract that lets
    {!Battery.run} fan any mix of attacks over any mix of locked
    subjects. It mirrors the registry shape of the lint rules
    ([Shell_lint.Rules.all]) and fuzz oracles ([Shell_fuzz.Oracles.all]):
    a record of metadata plus one [run] function, collected in a list.

    Verdict semantics:
    - [Broken (key, _)] — the attack produced a key that passes
      {!Shell_locking.Locked.verify} against the original (attacks
      route their candidate through {!checked_broken}, so an unverified
      guess can never surface as a break);
    - [Resilient _] — the attack ran within budget and did not break
      the scheme ({e under this budget}: a SAT attack that runs out of
      DIPs, conflicts or time is reported here);
    - [Inapplicable _] — the attack does not apply to the subject's
      shape (no key bits, too many key bits for brute force, cyclic
      netlist for simulation-based attacks) and says why.

    Determinism contract: with budgets chosen so the dip/conflict caps
    bind before [time_limit], every verdict is a pure function of
    (subject, budget) — which is what makes the battery matrix
    byte-identical at any [SHELL_JOBS]. *)

(** Resource budget. Attacks ignore the knobs that do not apply to
    them. *)
type budget = {
  max_dips : int;  (** DIP-loop iterations (SAT-family attacks) *)
  max_conflicts : int;  (** total solver conflicts (SAT-family) *)
  time_limit : float;  (** wall-clock seconds per attack *)
  vectors : int;  (** simulation sample size (sim-family attacks) *)
}

val budget :
  ?max_dips:int ->
  ?max_conflicts:int ->
  ?time_limit:float ->
  ?vectors:int ->
  unit ->
  budget
(** Defaults: 256 DIPs, 200_000 conflicts, 30.0 s, 256 vectors. *)

(** Effort actually spent, in attack-agnostic terms. [detail] carries
    per-attack extras (solver decisions, settle rounds, key-fate
    counts...) as stable integers. *)
type stats = {
  iterations : int;  (** main-loop rounds: DIPs, keys tried, bits probed *)
  oracle_queries : int;  (** activated-chip queries (scalar vector count) *)
  conflicts : int;  (** solver conflicts, 0 for sim-only attacks *)
  elapsed : float;  (** wall-clock seconds (excluded from stable JSON) *)
  key_bits : int;
  recovered_bits : int;  (** bits the attack pinned (= key_bits on break) *)
  detail : (string * int) list;  (** attack-specific stable extras *)
}

type verdict =
  | Broken of bool array * stats  (** verified functionally-correct key *)
  | Resilient of stats  (** survived this budget *)
  | Inapplicable of string  (** attack does not apply; reason *)

val stats_of : verdict -> stats option

(** What an attack consumes — battery callers can filter on these. *)
type capability =
  | Oracle_access  (** queries the activated chip (original netlist) *)
  | Structure_only  (** reads only the locked netlist *)
  | Ground_truth  (** scores itself against the correct key *)

val capability_name : capability -> string

type searches
(** One battery run's single-flight table of SAT-search verdicts for
    one subject (see {!shared_search}). *)

(** One locked design under attack. [cycle_blocks] carries the
    cyclic-reduction pre-processing patterns when the subject came out
    of the eFPGA flow ([[]] otherwise) — {!Shell_locking.Locked.t} does
    not record them, so the subject does. *)
type subject = {
  label : string;  (** row label in the matrix, e.g. ["c432/xor8"] *)
  original : Shell_netlist.Netlist.t;
  locked : Shell_locking.Locked.t;
  cycle_blocks : (int array * bool array) list;
  searches : searches option;
      (** the run's search table on the copies {!Battery.run} hands
          its cells; [None] from {!subject} *)
}

val subject :
  ?label:string ->
  ?cycle_blocks:(int array * bool array) list ->
  original:Shell_netlist.Netlist.t ->
  Shell_locking.Locked.t ->
  subject
(** [label] defaults to ["<netlist name>/<scheme>"]; no search table. *)

(** {1 Searches shared within one battery run} *)

val with_searches : subject -> subject
(** A copy of the subject with a fresh, empty search table whose
    searches run under the calling domain's
    {!Shell_util.Obs.context}. {!Battery.run} makes one per subject
    inside its ["battery"] span, so a table lives for one run: a
    subject reused across runs never reuses a search. *)

val shared_search :
  subject -> solver_seed:int -> budget -> (unit -> verdict) -> verdict
(** [shared_search s ~solver_seed budget search] is [search ()] when [s]
    has no table. Otherwise the search keyed by [(solver_seed, budget)]
    runs once per table: the first caller claims the key and runs
    [search]; a caller that finds the key claimed waits for that
    search and a later one reuses its verdict, and either adds 1 to the
    ["shared_searches"] counter of the table's span. Both happen under
    the table's span context, so the search's spans and the count land
    in the same place whichever cell claimed the search: the count is
    the run's asks minus its searches, the same at any job count. If
    [search] raises, the key re-opens before the exception propagates,
    and a waiter claims it and runs it again. [search] must not submit
    pool work, so a waiter always waits on a search that is running. *)

type t = {
  name : string;  (** registry key, e.g. ["sat"], ["appsat"] *)
  description : string;
  capabilities : capability list;
  run : budget -> subject -> verdict;
}

(** {1 Helpers shared by attack implementations} *)

val oracle : Shell_netlist.Netlist.t -> bool array -> bool array
(** [oracle original] is the activated chip: the original's full-scan
    view, one query per call, evaluated on one lane of
    {!word_oracle}. *)

val word_oracle :
  Shell_netlist.Netlist.t -> lanes:int -> int array -> int array
(** Word-parallel form of {!oracle}: up to [Simw.width] queries per
    call, one lane each, in {!Shell_netlist.Simw} packing. *)

val stimulus :
  ?exhaustive_upto:int -> seed:int -> vectors:int -> int -> (int * int array) list
(** [stimulus ~seed ~vectors n_in] is the test-vector sample of the
    simulation attacks, as [(lanes, input words)] chunks in
    {!Shell_netlist.Simw} packing (every chunk full but the last). When
    [n_in <= exhaustive_upto] it is all [2^n_in] input vectors in
    counting order (vector [v] sets input [i] iff bit [i] of [v] is
    set); otherwise [vectors] random vectors from [Shell_util.Rng.create
    seed], drawn through {!Shell_util.Rng.vectors_packed}. Without
    [exhaustive_upto] the sample is always random. *)

val golden :
  Shell_netlist.Netlist.t ->
  (int * int array) list ->
  (int * int array * int array) list
(** [golden original chunks] pairs every stimulus chunk with the
    activated chip's response: [(lanes, inputs, oracle outputs)]. *)

val checked_broken : subject -> bool array -> stats -> verdict
(** [Broken (key, stats)] iff the candidate key passes
    {!Shell_locking.Locked.verify} against the original; otherwise
    [Resilient] with a ["verify_failed"] detail mark. Every attack
    funnels its break claims through here. *)
