(* Workload `battery`: one op is one resilience row, all ten registered
   attacks on one locked xbar4 through [Battery.run], spread over the pool
   at nproc domains. About 95 % of a row is the SAT-family DIP loops; it
   never touches PnR or the pass cache. *)

module A = Shell_attacks
module L = Shell_locking
module Jobs = Shell_serve.Jobs
module Obs = Shell_util.Obs

(* normalised ms per row when the benchmark was written *)
let nominal_ms = 370.

(* Cap-bound: the DIP, conflict and vector caps bind long before the wall
   clock, so verdicts are byte-identical at any job count. *)
let budget =
  A.Attack.budget ~max_dips:32 ~max_conflicts:60_000 ~time_limit:120.0
    ~vectors:256 ()

let xbar4 () = Shell_circuits.Axi_xbar.netlist ~channels:4 ~data_width:8 ()

let subject nl (s : Streams.subject) =
  match Jobs.locked_of_spec ~seed:s.lock_seed nl s.scheme with
  | Ok lk ->
      A.Attack.subject
        ~label:(Printf.sprintf "xbar4/%s@%d" s.scheme s.lock_seed)
        ~original:nl lk
  | Error d -> failwith (Shell_util.Diag.to_string d)

let row ~jobs ?attacks subj = A.Battery.run ~jobs ?attacks ~budget [ subj ]

(* The per-layer metrics of a traced run, by name and unit. *)
let traced =
  List.map (fun a -> ("attack." ^ a ^ ".ms", "ms")) (A.Battery.names ())
  @ List.map
      (fun a -> ("attack." ^ a ^ ".conflicts", "count"))
      [ "sat"; "appsat"; "portfolio" ]
  @ List.map
      (fun a -> ("attack." ^ a ^ ".iterations", "count"))
      [ "sat"; "appsat" ]
  @ [ ("solver.propagations", "count"); ("pool.efficiency", "ratio") ]

(* The row's stable rendering: verdicts, keys and effort counts. *)
let digest (m : A.Battery.matrix) =
  Shell_util.Jsonw.to_string (A.Battery.matrix_json m)
  |> Digest.string |> Digest.to_hex

(* Every key an attack claims to have broken must unlock the design. *)
let broken_keys_verify (subj : A.Attack.subject) (m : A.Battery.matrix) =
  List.for_all
    (fun (r : A.Battery.row) ->
      List.for_all
        (fun (c : A.Battery.cell) ->
          match c.A.Battery.verdict with
          | A.Attack.Broken (key, _) ->
              L.Locked.verify ~original:subj.A.Attack.original
                { subj.A.Attack.locked with L.Locked.key }
          | A.Attack.Resilient _ | A.Attack.Inapplicable _ -> true)
        r.A.Battery.cells)
    m.A.Battery.rows

(* A row passes when its broken keys verify and it equals the reference
   row of its subject. *)
let ok subj ~expected m = broken_keys_verify subj m && digest m = expected

(* Wrap every registered attack in a timing closure; each fills its own
   slot of [ms], so cells on different domains never share one. *)
let timed_attacks ms =
  List.mapi
    (fun i (a : A.Attack.t) ->
      {
        a with
        A.Attack.run =
          (fun b s ->
            let t0 = Timer.now_ms () in
            let v = a.A.Attack.run b s in
            ms.(i) <- Timer.now_ms () -. t0;
            v);
      })
    A.Battery.all

let run ~timer ~trace ~seed ~seconds =
  let jobs = Domain.recommended_domain_count () in
  Shell_util.Pool.set_default_jobs jobs;
  let round_ops = List.length Streams.subjects in
  let rounds = Streams.rounds ~seconds ~round_ops ~nominal_ms in
  let timed = Streams.battery ~seed ~rounds in
  let r = Report.samples () in
  let step f = Report.step r timer f in
  (* set-up: build the subjects and row each; those rows are the
     reference every timed row must reproduce, and must themselves match
     the rows kept in [Expected] *)
  let reference =
    Report.setup r (fun () ->
        let subjects =
          step (fun () ->
              let nl = xbar4 () in
              List.map (fun s -> (s, subject nl s)) Streams.subjects)
        in
        List.map
          (fun (spec, subj) ->
            let m = step (fun () -> row ~jobs subj) in
            Timer.dirty timer;
            let label = subj.A.Attack.label in
            (match List.assoc_opt label Expected.battery with
            | Some expected when ok subj ~expected m -> ()
            | _ -> failwith ("set-up row differs from expected: " ^ label));
            (spec, (subj, digest m)))
          subjects)
  in
  let attack_ms = ref [] and counts = ref [] and props = ref [] in
  let efficiency = ref [] in
  let names = A.Battery.names () in
  List.iteri
    (fun i spec ->
      let subj, expected = List.assoc spec reference in
      (* traced rows run with Obs on and timed attacks *)
      let traced = Report.traced_round ~trace ~round_ops i in
      let cell_ms = Array.make (List.length names) 0. in
      let attacks = if traced then Some (timed_attacks cell_ms) else None in
      let p0 = Report.obs_counter "solver_propagations" in
      Obs.set_enabled traced;
      let m, s = Timer.time timer (fun () -> row ~jobs ?attacks subj) in
      Obs.set_enabled false;
      Report.op r ~traced ~ok:(ok subj ~expected m) s;
      Timer.dirty timer;
      if traced then begin
        List.iteri
          (fun k name ->
            attack_ms := (name, Timer.norm_part s cell_ms.(k)) :: !attack_ms)
          names;
        props :=
          float_of_int (Report.obs_counter "solver_propagations" - p0)
          :: !props;
        efficiency :=
          Stats.sum (Array.to_list cell_ms)
          /. (float_of_int jobs *. s.Timer.raw_ms)
          :: !efficiency;
        List.iter
          (fun (row : A.Battery.row) ->
            List.iter
              (fun (c : A.Battery.cell) ->
                Option.iter
                  (fun (st : A.Attack.stats) ->
                    counts :=
                      (c.attack ^ ".conflicts", float_of_int st.conflicts)
                      :: (c.attack ^ ".iterations", float_of_int st.iterations)
                      :: !counts)
                  (A.Attack.stats_of c.verdict))
              row.cells)
          m.rows
      end)
    timed;
  let metrics =
    if not trace then
      Report.timings r ~peak_rss_mb:(Report.peak_rss_mb 0)
    else
      let n = List.length !props in
      let count what a =
        Report.median_by (a ^ "." ^ what) !counts
          ("attack." ^ a ^ "." ^ what)
          "count"
      in
      List.concat_map
        (fun a -> Report.median_by a !attack_ms ("attack." ^ a ^ ".ms") "ms")
        names
      @ List.concat_map (count "conflicts") [ "sat"; "appsat"; "portfolio" ]
      @ List.concat_map (count "iterations") [ "sat"; "appsat" ]
      @ Report.opt ~samples:n "solver.propagations" "count"
          (Stats.median !props)
      @ Report.opt ~samples:n "pool.efficiency" "ratio"
          (Stats.median !efficiency)
      @ Report.host r timer
  in
  (r.failed = 0, r, metrics)
