module Obs = Shell_util.Obs
module Diag = Shell_util.Diag

(* -------- commit identity, without spawning git -------- *)

let read_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end

let rec find_git_dir dir depth =
  if depth > 8 then None
  else
    let cand = Filename.concat dir ".git" in
    if Sys.file_exists cand && Sys.is_directory cand then Some cand
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_git_dir parent (depth + 1)

let packed_ref git_dir refname =
  Option.bind
    (read_file (Filename.concat git_dir "packed-refs"))
    (fun text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ' ' with
             | Some i
               when String.sub line (i + 1) (String.length line - i - 1)
                    = refname ->
                 Some (String.sub line 0 i)
             | _ -> None))

let resolve_head git_dir =
  match read_file (Filename.concat git_dir "HEAD") with
  | None -> None
  | Some head -> (
      let head = String.trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" ->
          let refname =
            String.trim (String.sub head (i + 1) (String.length head - i - 1))
          in
          let loose =
            Option.map String.trim
              (read_file (Filename.concat git_dir refname))
          in
          (match loose with
          | Some sha when sha <> "" -> Some sha
          | _ -> packed_ref git_dir refname)
      | _ -> if head = "" then None else Some head (* detached *))

let commit_id () =
  match Sys.getenv_opt "SHELL_BENCH_COMMIT" with
  | Some c when String.trim c <> "" -> String.trim c
  | _ -> (
      match find_git_dir (Sys.getcwd ()) 0 with
      | Some git_dir -> (
          match resolve_head git_dir with
          | Some sha -> sha
          | None -> "unknown")
      | None -> "unknown")

(* -------- one record -------- *)

let run_target ?commit ~jobs (t : Targets.t) =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Shell_core.Pipeline.clear_cache ();
  let times =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () -> Obs.with_span ("bench." ^ t.Targets.name) (fun () -> t.Targets.run ~jobs))
  in
  let counters =
    Obs.diffable_counters ~extra:Targets.extra_counters (Obs.snapshot ())
  in
  let spans = Obs.span_aggregate (Obs.spans ()) in
  {
    Record.version = Record.version;
    commit = (match commit with Some c -> c | None -> commit_id ());
    target = t.Targets.name;
    jobs;
    times;
    counters;
    spans;
  }

(* -------- orchestration -------- *)

type opts = {
  targets : string list;
  history : string option;
  record : bool;
  check : bool;
  report : string option;
  commit : string option;
}

let default_opts =
  {
    targets = [];
    history = None;
    record = false;
    check = false;
    report = None;
    commit = None;
  }

let ( let* ) = Result.bind

let resolve_targets names =
  match names with
  | [] -> Ok Targets.all
  | names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: tl -> (
            match Targets.find n with
            | Some t -> go (t :: acc) tl
            | None ->
                Error
                  [
                    Diag.make ~context:[ "bench" ]
                      (Printf.sprintf "unknown bench target %S (have: %s)" n
                         (String.concat ", " (Targets.names ())));
                  ])
      in
      go [] names

let execute ?(out = print_endline) opts =
  let* targets = resolve_targets opts.targets in
  let jobs = Shell_util.Pool.default_jobs () in
  let history_path =
    match opts.history with
    | Some p -> p
    | None -> "BENCH_HISTORY.jsonl"
  in
  let* committed =
    Result.map_error
      (fun e -> [ Diag.make ~context:[ "bench"; "history" ] e ])
      (History.load history_path)
  in
  let records =
    List.map
      (fun t ->
        out (Printf.sprintf "bench %s (jobs=%d)..." t.Targets.name jobs);
        let r = run_target ?commit:opts.commit ~jobs t in
        List.iter
          (fun (name, secs) -> out (Printf.sprintf "  %-28s %8.3f s" name secs))
          r.Record.times;
        out
          (Printf.sprintf "  %d counters, %d span keys"
             (List.length r.Record.counters)
             (List.length r.Record.spans));
        r)
      targets
  in
  let drifts =
    if not opts.check then []
    else
      List.filter_map
        (fun (r : Record.t) ->
          match History.last ~target:r.Record.target committed with
          | None ->
              out
                (Printf.sprintf "check %s: no baseline in %s, skipped"
                   r.Record.target history_path);
              None
          | Some baseline ->
              let rep = Check.diff ~baseline r in
              if Check.ok rep then begin
                out
                  (Printf.sprintf "check %s: clean vs %s" r.Record.target
                     rep.Check.baseline_commit);
                None
              end
              else begin
                out
                  (Format.asprintf "check %s: DRIFT@.%a" r.Record.target
                     Check.pp rep);
                Some (Check.to_diag rep)
              end)
        records
  in
  if opts.record then
    List.iter
      (fun r ->
        History.append history_path r;
        out (Printf.sprintf "recorded %s -> %s" r.Record.target history_path))
      records;
  (match opts.report with
  | None -> ()
  | Some path ->
      let all =
        if opts.record then committed @ records else committed
      in
      Report.write path all;
      out (Printf.sprintf "report -> %s" path));
  match drifts with [] -> Ok () | ds -> Error ds
