module Diag = Shell_util.Diag

type change = { key : string; baseline : int option; current : int option }

type report = {
  target : string;
  baseline_commit : string;
  counters : change list;
  spans : change list;
}

type Diag.payload += Perf_drift of report

(* -------- diff -------- *)

(* Both sides are name-sorted; a merge walk yields every key that
   differs, in key order. *)
let diff_assoc base cur =
  let rec go acc base cur =
    let change key baseline current = { key; baseline; current } in
    match (base, cur) with
    | [], [] -> List.rev acc
    | (k, v) :: btl, [] -> go (change k (Some v) None :: acc) btl []
    | [], (k, v) :: ctl -> go (change k None (Some v) :: acc) [] ctl
    | (bk, bv) :: btl, (ck, cv) :: ctl ->
        if bk = ck then
          let acc =
            if bv = cv then acc else change bk (Some bv) (Some cv) :: acc
          in
          go acc btl ctl
        else if bk < ck then go (change bk (Some bv) None :: acc) btl cur
        else go (change ck None (Some cv) :: acc) base ctl
  in
  go [] base cur

let diff ~baseline (r : Record.t) =
  {
    target = r.Record.target;
    baseline_commit = baseline.Record.commit;
    counters = diff_assoc baseline.Record.counters r.Record.counters;
    spans = diff_assoc baseline.Record.spans r.Record.spans;
  }

let ok r = r.counters = [] && r.spans = []

(* -------- rendering -------- *)

let pp_value ppf = function
  | Some v -> Format.fprintf ppf "%d" v
  | None -> Format.pp_print_string ppf "-"

let pp_changes ppf what changes =
  List.iter
    (fun c ->
      Format.fprintf ppf "  %s %-44s %a -> %a@," what c.key pp_value
        c.baseline pp_value c.current)
    changes

let pp ppf r =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "target %s vs baseline commit %s:@," r.target
    r.baseline_commit;
  pp_changes ppf "counter" r.counters;
  pp_changes ppf "span   " r.spans;
  Format.pp_close_box ppf ()

let summary r =
  Printf.sprintf "%d counter, %d span drift(s)" (List.length r.counters)
    (List.length r.spans)

let to_diag r =
  Diag.make ~context:[ "bench"; r.target ] ~payload:(Perf_drift r)
    (Printf.sprintf "unexplained perf drift vs %s" r.baseline_commit)

let () =
  Diag.register_printer (function
    | Perf_drift r -> Some (summary r)
    | _ -> None)
