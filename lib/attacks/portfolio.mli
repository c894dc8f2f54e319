(** Attack portfolio: the same SAT attack raced under several solver
    phase seeds on separate domains.

    CDCL runtime on a fixed instance varies wildly with the initial
    phase/branching choices; racing k differently-seeded solvers and
    taking the first break is the classic portfolio speedup, and it is
    the attacker model a defender should budget against (the paper's
    48-hour timeout assumes one solver).

    Determinism contract: every racer runs to its own budget and the
    reported [winner] is the lowest-index configuration that broke the
    key — independent of scheduling. Both forms below go through one
    race: {!run} races all four configurations, while the battery form
    {!attack} decides in index order, since a racer 0 break is the
    winner whatever the others do. *)

type config = { solver_seed : int; label : string }

type t = {
  winner : int option;  (** lowest-index config whose attack broke *)
  outcomes : (config * Attack.verdict) array;  (** per config, in order *)
}

val run : Attack.budget -> Attack.subject -> t
(** [run budget subject] races {!Sat_attack.run} over four fixed
    configurations — seed 0 (MiniSat's all-false phases) plus three
    fixed pseudorandom phase seeds — on the domain pool. The budget is
    per racer, and each racer verifies its own break. The race's
    ["portfolio"] span carries [racers_run] (the racers that ran) and,
    when a racer broke, [winner] and [conflicts_at_win]. *)

val best : t -> Attack.verdict
(** The winner's verdict, or — when nothing broke — the verdict of the
    configuration that got through the most DIPs (ties to the lowest
    index), i.e. the strongest attack evidence gathered. *)

val attack : Attack.t
(** Battery form (["portfolio"]): {!best} of one race that decides in
    index order. Racer 0 runs first, in the calling cell; inside
    {!Battery.run} it shares one search with the row's [sat] cell
    (counted in the battery span's [shared_searches], see
    {!Attack.shared_search}). Racers 1–3 run, as a nested pool batch,
    only when racer 0 did not break, so [racers_run] is 1 or 4. The
    verdict equals [best (run budget subject)]; the winning config
    index rides in [detail] as ["winner"] (-1 when nothing broke). *)
