(* Workload `lock`: what `shell lock -b B --style S --seed N` computes,
   over the five Table III circuits x three fabric styles, at 1 domain. It
   writes to the pass cache but never reads it back, and never touches the
   pool, the daemon or the attacks: the control for changes to those. *)

module C = Shell_core
module Pnr = Shell_pnr.Pnr
module F = Shell_fabric
module Jobs = Shell_serve.Jobs
module Obs = Shell_util.Obs

(* normalised ms per op when the benchmark was written *)
let nominal_ms = 110.

let elaborate circuit =
  match Jobs.netlist_of_bench circuit with
  | Ok nl -> nl
  | Error d -> failwith (Shell_util.Diag.to_string d)

(* The flow configuration `shell lock` builds (see [Jobs.lock_flow]). *)
let config (op : Streams.lock_op) =
  match (Jobs.default_tfr op.circuit, Jobs.style_of_string op.style) with
  | Some (route, lgc, label), Ok style ->
      {
        (C.Flow.shell_config ~target:(C.Flow.Fixed { route; lgc; label }) ())
        with
        C.Flow.style;
        seed = op.flow_seed;
      }
  | _ -> invalid_arg ("Lock_wl.config: " ^ op.circuit ^ "/" ^ op.style)

type outcome = { result : C.Flow.result; verified : bool; flow_ms : float }

let lock nl cfg =
  C.Pipeline.clear_cache ();
  let t0 = Timer.now_ms () in
  let result = C.Flow.run cfg nl in
  let flow_ms = Timer.now_ms () -. t0 in
  { result; verified = C.Flow.verify result; flow_ms }

(* An op passes when the locked design verifies and PnR fit. *)
let ok o = o.verified && Result.is_ok o.result.C.Flow.pnr.Pnr.fit

let layers =
  [
    "connectivity";
    "selection";
    "extraction";
    "synthesis";
    "pnr";
    "emit";
    "shrink";
    "overhead";
    "lint";
  ]

(* The per-layer metrics of a traced run, by name and unit. *)
let traced =
  List.map (fun l -> (l ^ ".ms", "ms")) layers
  @ [ ("flow.residual_ms", "ms"); ("verify.ms", "ms") ]
  @ List.map (fun l -> (l ^ ".alloc_mw", "Mw")) (layers @ [ "verify" ])
  @ [
      ("pnr.attempts", "count");
      ("pnr.tiles", "count");
      ("circuits.elab_ms", "ms");
      ("area_x", "ratio");
      ("power_x", "ratio");
      ("delay_x", "ratio");
    ]

type call = { layer : string; ms : float; words : float }

(* Re-invoke each layer's public entry point on the op's own artifacts,
   timing it and counting the minor-heap words it allocates (exact at 1
   domain). Returns the calls in pipeline order, then verify and the
   circuit's elaboration, and whether the replay reproduced the op's
   overhead row. *)
let replay circuit (cfg : C.Flow.config) (r : C.Flow.result) =
  let calls = ref [] in
  let call layer f =
    let w0 = Gc.minor_words () in
    let t0 = Timer.now_ms () in
    let v = f () in
    let ms = Timer.now_ms () -. t0 in
    calls := { layer; ms; words = Gc.minor_words () -. w0 } :: !calls;
    v
  in
  let style = cfg.C.Flow.style and seed = cfg.C.Flow.seed in
  let route, lgc, label =
    match cfg.C.Flow.target with
    | C.Flow.Fixed { route; lgc; label } -> (route, lgc, label)
    | _ -> invalid_arg "Lock_wl.replay: not a fixed target"
  in
  let mapped = r.C.Flow.mapped.C.Synthesize.netlist in
  call "connectivity" (fun () ->
      ignore (C.Connectivity.analyze r.C.Flow.original));
  call "selection" (fun () ->
      ignore (C.Selection.fixed r.C.Flow.analysis ~label ~route ~lgc ()));
  call "extraction" (fun () ->
      ignore
        (C.Extraction.extract r.C.Flow.original
           ~member:(C.Selection.member r.C.Flow.analysis r.C.Flow.choice)));
  call "synthesis" (fun () ->
      ignore
        (C.Synthesize.run ~style
           ~route_origins:
             (C.Selection.route_origins r.C.Flow.analysis r.C.Flow.choice)
           r.C.Flow.cut.C.Extraction.sub));
  call "pnr" (fun () -> ignore (Pnr.fit_loop ~seed ~style mapped));
  (* the emit pass also builds the acyclic twin that timing analysis
     needs when the style routes cyclically *)
  let timing =
    call "emit" (fun () ->
        let e = F.Emit.emit ~style ~seed mapped in
        if (F.Style.params style).F.Style.cyclic_routing then
          (F.Emit.emit ~style ~seed ~force_acyclic:true mapped).F.Emit.locked
        else e.F.Emit.locked)
  in
  call "shrink" (fun () ->
      ignore
        (F.Fabric.shrink r.C.Flow.pnr.Pnr.fabric
           ~used:r.C.Flow.emitted.F.Emit.used));
  let overhead =
    call "overhead" (fun () ->
        let o =
          C.Overhead.compute ~original:r.C.Flow.original
            ~sub:r.C.Flow.cut.C.Extraction.sub ~resources:r.C.Flow.resources
            ~style ~timing_sub:timing
            ~feedthroughs:r.C.Flow.resources.F.Resources.feedthrough_tracks ()
        in
        ignore
          (C.Extraction.reassemble r.C.Flow.original r.C.Flow.cut
             ~replacement:r.C.Flow.emitted.F.Emit.locked);
        o)
  in
  call "lint" (fun () ->
      ignore
        (Shell_lint.Lint.run ~rules:Shell_lint.Rules.all
           (Jobs.lint_subject_of_result r)));
  call "verify" (fun () -> ignore (C.Flow.verify r));
  call "elab" (fun () -> ignore (elaborate circuit));
  (List.rev !calls, overhead = r.C.Flow.overhead)

(* per-layer samples of the traced ops *)
type trace = {
  mutable layer_ms : (string * float) list;
  mutable layer_mw : (string * float) list;
  mutable residual : float list;
  mutable attempts : float list;
  mutable tiles : float list;
}

let run ~timer ~trace ~seed ~seconds =
  Shell_util.Pool.set_default_jobs 1;
  let round_ops = List.length Streams.classes in
  let rounds = Streams.rounds ~seconds ~round_ops ~nominal_ms in
  let setup_ops, timed = Streams.lock ~seed ~rounds in
  let r = Report.samples () in
  let step f = Report.step r timer f in
  (* set-up: elaborate the circuits, then one untimed op per class *)
  let netlists =
    Report.setup r (fun () ->
        let netlists =
          List.map (fun c -> (c, step (fun () -> elaborate c))) Streams.circuits
        in
        List.iter
          (fun (op : Streams.lock_op) ->
            let nl = List.assoc op.circuit netlists in
            let o = step (fun () -> lock nl (config op)) in
            if not (ok o) then
              failwith
                (Printf.sprintf "set-up lock %s/%s seed %d failed" op.circuit
                   op.style op.flow_seed))
          setup_ops;
        netlists)
  in
  let prepare (op : Streams.lock_op) =
    (List.assoc op.circuit netlists, config op)
  in
  let apd = ref [] and replay_ok = ref true in
  let tr =
    { layer_ms = []; layer_mw = []; residual = []; attempts = []; tiles = [] }
  in
  List.iteri
    (fun i (op : Streams.lock_op) ->
      let nl, cfg = prepare op in
      (* traced ops run with Obs on and are replayed layer by layer *)
      let traced = Report.traced_round ~trace ~round_ops i in
      let retries0 = Report.obs_counter "pnr_retries" in
      Obs.set_enabled traced;
      let o, s = Timer.time timer (fun () -> lock nl cfg) in
      Obs.set_enabled false;
      Report.op r ~traced ~ok:(ok o) s;
      let ov = o.result.C.Flow.overhead in
      apd := C.Overhead.(ov.area, ov.power, ov.delay) :: !apd;
      if traced then begin
        (* Obs is off again, so the replayed PnR leaves the counter alone *)
        let (calls, same), b =
          Timer.time timer (fun () -> replay op.circuit cfg o.result)
        in
        if not same then replay_ok := false;
        tr.attempts <-
          float_of_int (1 + Report.obs_counter "pnr_retries" - retries0)
          :: tr.attempts;
        tr.tiles <-
          float_of_int (F.Fabric.clb_tiles o.result.C.Flow.pnr.Pnr.fabric)
          :: tr.tiles;
        let passes = ref 0. in
        List.iter
          (fun c ->
            let ms = Timer.norm_part b c.ms in
            if List.mem c.layer layers then passes := !passes +. ms;
            tr.layer_ms <- (c.layer, ms) :: tr.layer_ms;
            tr.layer_mw <- (c.layer, c.words /. 1e6) :: tr.layer_mw)
          calls;
        tr.residual <- (Timer.norm_part s o.flow_ms -. !passes) :: tr.residual
      end)
    timed;
  let correct = r.failed = 0 && !replay_ok in
  let metrics =
    if not trace then Report.timings r ~peak_rss_mb:(Report.peak_rss_mb 0)
    else
      let geo f = Stats.geomean (List.map f !apd) in
      let ops = List.length !apd in
      let n = List.length tr.residual in
      List.concat_map
        (fun l -> Report.median_by l tr.layer_ms (l ^ ".ms") "ms")
        layers
      @ Report.opt ~samples:n "flow.residual_ms" "ms" (Stats.median tr.residual)
      @ Report.median_by "verify" tr.layer_ms "verify.ms" "ms"
      @ List.concat_map
          (fun l -> Report.median_by l tr.layer_mw (l ^ ".alloc_mw") "Mw")
          (layers @ [ "verify" ])
      @ Report.opt ~samples:n "pnr.attempts" "count" (Stats.median tr.attempts)
      @ Report.opt ~samples:n "pnr.tiles" "count" (Stats.median tr.tiles)
      @ Report.median_by "elab" tr.layer_ms "circuits.elab_ms" "ms"
      @ [
          Report.metric ~samples:ops "area_x" "ratio"
            (geo (fun (a, _, _) -> a));
          Report.metric ~samples:ops "power_x" "ratio"
            (geo (fun (_, p, _) -> p));
          Report.metric ~samples:ops "delay_x" "ratio"
            (geo (fun (_, _, d) -> d));
        ]
      @ Report.host r timer
  in
  (correct, r, metrics)
