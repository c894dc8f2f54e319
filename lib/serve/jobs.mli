(** Job execution shared by the CLI and the daemon.

    The serve contract is byte-identity: a job submitted over the
    socket returns exactly the bytes the equivalent CLI invocation
    prints. Both front ends call these functions, so the property
    holds by construction. Everything returns [(_, Diag.t) result] —
    only the CLI maps errors to [exit 1]. *)

module C = Shell_core
module F = Shell_fabric
module L = Shell_locking
module A = Shell_attacks

val netlist_of_bench :
  string -> (Shell_netlist.Netlist.t, Shell_util.Diag.t) result
(** Bundled benchmarks: the catalog (any case) plus soc/xbar/desx. Each
    is elaborated once per process, on the first request for any
    spelling of its name, and every later request gets that same
    design; each elaboration counts in the unstable Obs counter
    [designs_elaborated]. The design is shared by every job and domain
    of the process and must be treated as read-only: no flow, attack,
    scheme or lint mutates its input. Two domains asking at once may
    both elaborate, but both get the design published first, and only
    ever a finished one. *)

val clear_designs : unit -> unit
(** Forget every memoized design, so the next request elaborates
    afresh (for comparing a shared design against a fresh one). *)

val default_tfr : string -> (string list * string list * string) option
(** Per-benchmark SheLL TfR defaults: (route, lgc, label); [None] for
    desx and unknown names. *)

val style_id : F.Style.t -> string
(** Wire spelling ("openfpga" | "fabulous" | "muxchain") — the same
    strings the CLI's --style enum accepts. *)

val style_of_string : string -> (F.Style.t, Shell_util.Diag.t) result

val locked_of_spec :
  seed:int ->
  Shell_netlist.Netlist.t ->
  string ->
  (L.Locked.t, Shell_util.Diag.t) result
(** Parse-and-apply a pure locking scheme spec (xor:N, rlut:N, hlut:N,
    mux:N, muxlut:N). *)

val lock_flow :
  Protocol.lock_spec -> (C.Flow.result, Shell_util.Diag.t) result
(** Resolve benchmark + TfR and run the full SheLL flow. *)

val lock_netlist :
  Protocol.lock_spec ->
  Shell_netlist.Netlist.t ->
  (C.Flow.result, Shell_util.Diag.t) result
(** {!lock_flow} on a given design instead of the bundled [bench]
    (`shell lock-file`); [bench] then only matters for the default TfR
    when [route] and [lgc] are both empty. *)

val lock_render : C.Flow.result -> string
(** The `shell lock` stdout bytes: summary + verify line. *)

val lock_output : Protocol.lock_spec -> (string, Shell_util.Diag.t) result

val attack_output :
  Protocol.attack_spec -> (string, Shell_util.Diag.t) result
(** The `shell attack` stdout bytes: banner + verdict. *)

val battery_matrix :
  Protocol.battery_spec ->
  (A.Battery.matrix, Shell_util.Diag.t) result

val battery_render_json : A.Battery.matrix -> string
(** The `shell battery --json` stdout bytes. *)

val battery_output :
  Protocol.battery_spec -> (string, Shell_util.Diag.t) result

val fuzz_output :
  Protocol.fuzz_spec -> (string, Shell_util.Diag.t) result
(** Full oracle battery, no shrinking, no reproducer files (a shared
    daemon shouldn't write into its working directory for a remote
    client). *)

val lint_subject_of_result : C.Flow.result -> Shell_lint.Lint.subject
(** The subject the pipeline's lint pass checks, artifacts included
    ({!Shell_core.Pipeline.lint_subject}). *)

val lint_subjects :
  Protocol.lint_spec -> (Shell_lint.Lint.subject list, Shell_util.Diag.t) result
(** What `lint -b BENCH...` checks, one subject per benchmark in order:
    the bundled netlist, or with [locked] the SheLL flow's result on it
    under the spec's style and seed ({!lint_subject_of_result}). The
    first failure wins. Both lint front ends call this. *)

val lint_output :
  Protocol.lint_spec -> (string, Shell_util.Diag.t) result
(** JSON lint report over bundled benchmarks (optionally locked
    first). *)

val run : Protocol.job -> (string, Shell_util.Diag.t) result
(** Dispatch any protocol job to its executor. *)
