(** The lint engine: rule registry, deterministic parallel execution,
    stable finding fingerprints, baselines and report rendering.

    The rules themselves live in {!Rules}; this module owns everything
    around them. A {e subject} bundles whichever artifacts are
    available — a bare netlist, or a locked design with its key, the
    pre-lock design and selection origins, the fitted fabric, bitstream
    and resource inventory — and each rule checks what it can see,
    staying silent about the rest.

    Determinism contract: rules fan out over {!Shell_util.Pool} but the
    report is assembled in registry order with location-ordered
    findings, so text and JSON output are byte-identical at any
    [SHELL_JOBS] setting. *)

type severity = Info | Warn | Error

val severity_name : severity -> string
(** ["info"], ["warn"], ["error"]. *)

val severity_of_string : string -> severity option
val severity_rank : severity -> int
(** [Info] = 0 < [Warn] = 1 < [Error] = 2. *)

type pack = Structural | Security | Fabric

val pack_name : pack -> string

type selection = {
  design : Shell_netlist.Netlist.t;
      (** the pre-lock netlist the origin patterns refer to *)
  route_origins : string list;  (** origin substrings of the ROUTE pick *)
  lgc_origins : string list;  (** origin substrings of the LGC pick *)
}

type subject = {
  name : string;
  netlist : Shell_netlist.Netlist.t;  (** what the rules primarily lint *)
  key : bool array option;  (** correct key, in [Netlist.keys] order *)
  selection : selection option;
  fabric : Shell_fabric.Fabric.t option;
  bitstream : Shell_fabric.Bitstream.t option;
  used : Shell_fabric.Resources.t option;
  pnr : Shell_pnr.Pnr.result option;
  reference : Shell_netlist.Netlist.t option;
      (** golden netlist for tamper detection (structural diff) *)
  shrunk : bool;  (** whether the fabric shrink step was applied *)
}

val subject :
  ?name:string ->
  ?key:bool array ->
  ?selection:selection ->
  ?fabric:Shell_fabric.Fabric.t ->
  ?bitstream:Shell_fabric.Bitstream.t ->
  ?used:Shell_fabric.Resources.t ->
  ?pnr:Shell_pnr.Pnr.result ->
  ?reference:Shell_netlist.Netlist.t ->
  ?shrunk:bool ->
  Shell_netlist.Netlist.t ->
  subject
(** Bundle a subject; [name] defaults to the netlist's module name,
    [shrunk] to [false]. *)

val of_locked :
  ?name:string -> Shell_locking.Locked.t -> subject
(** Subject for a locked design: the locked netlist plus its correct
    key. *)

type finding = {
  rule : string;
  severity : severity;
  where : string;
      (** stable location key: ["cell:12"], ["net:n5"], ["key:kb3"],
          ["output:y"], ["segment:lut0.table"], ... *)
  message : string;
}

(** Everything a rule may consult, precomputed once per subject: each
    analysis below runs once, however many rules read it. *)
type ctx = {
  subj : subject;
  invalid : (Shell_netlist.Netlist.invalid * string) list;
      (** the one [N.validate_all], with each defect's message; read by
          [port-invalid], [net-multi-driven] and [net-undriven] *)
  values : Dataflow.value array;  (** forward constant facts per net *)
  reach : bool array;
      (** nets in the {e structural} fanin cone of the outputs *)
  live : bool array;
      (** nets in the {e functional} cone (constant-aware cuts) *)
  masked : int array;
      (** per cell, the bitmask of its masked input positions
          ({!Odc.masks}), shared by ODC and taint *)
  odc : Odc.t;
      (** backward observability: which nets can still reach an output *)
  key_reach : bool array;
      (** per net, whether any key bit can functionally reach it
          ({!Taint.reach}: emptiness of the key-taint set, the only
          thing [key-taint-collapse] reads) *)
  cycles : Dataflow.cycles;
      (** combinational and MUX-chain SCCs, read by [comb-cycle] and
          [mux-chain-cycle]; empty without a graph when the netlist
          is acyclic *)
}

val make_ctx : subject -> ctx
(** Built eagerly, before the rules fan out over the pool. *)

type rule = {
  name : string;
  pack : pack;
  severity : severity;  (** severity of this rule's findings *)
  help : string;  (** one-line description for [--list-rules] *)
  check : ctx -> finding list;
      (** must be pure and deterministic; runs inside a pool task *)
}

val finding :
  rule -> ?severity:severity -> where:string ->
  ('a, unit, string, finding) format4 -> 'a
(** Build a finding for [rule] (severity defaults to the rule's). *)

val fingerprint : subject_name:string -> finding -> string
(** 16-hex-digit FNV-1a over subject name, rule name and location —
    {e not} the message, so reworded diagnostics keep their baseline
    suppressions. *)

(** {1 Baselines} *)

val parse_baseline : string -> string list
(** Fingerprints from baseline-file contents: first whitespace token of
    each line, [#]-comments and blank lines skipped. *)

val load_baseline : string -> (string list, string) result
(** [Error] describes an unreadable file. *)

val baseline_line : subject_name:string -> finding -> string
(** One baseline-file line: the fingerprint plus a locating comment. *)

(** {1 Running} *)

type report = {
  subject_name : string;
  findings : finding list;
      (** post-filter, post-suppression; registry order, then the
          rule's own (location) order *)
  suppressed : int;  (** findings hidden by the baseline *)
  errors : int;
  warns : int;
  infos : int;  (** counts over [findings] *)
}

val run :
  ?jobs:int ->
  ?severity:severity ->
  ?baseline:string list ->
  rules:rule list ->
  subject ->
  report
(** Evaluate [rules] against the subject, fanned over the pool
    ([jobs] as {!Shell_util.Pool.map}). [severity] is the reporting
    floor (default [Info] = everything); [baseline] fingerprints are
    suppressed and counted. Byte-identical output at any job count. *)

val ok : report -> bool
(** No (unsuppressed) errors. *)

(** {1 Rendering} *)

val report_json : report -> Shell_util.Jsonw.t
(** [{"subject": ..., "findings": [...], "errors": N, ...}]; each
    finding carries its fingerprint so baselines can be built from the
    JSON output too. *)

val reports_json : report list -> Shell_util.Jsonw.t
(** The whole run: [{"lint": {"version": 1, "reports": [...]}}]. *)

val pp_report : Format.formatter -> report -> unit
val pp_finding : subject_name:string -> Format.formatter -> finding -> unit
