module Pool = Shell_util.Pool
module Obs = Shell_util.Obs
module Jsonw = Shell_util.Jsonw
module Locked = Shell_locking.Locked

(* ---------------- registry ---------------- *)

let all : Attack.t list =
  [
    Sat_attack.attack;
    Appsat.attack;
    Brute_force.attack;
    Sensitize.attack;
    Structural.attack;
    Redundancy.attack;
    Scope.attack;
    Removal.attack;
    Proximity.attack;
    Portfolio.attack;
  ]

let find name = List.find_opt (fun (a : Attack.t) -> a.Attack.name = name) all
let names () = List.map (fun (a : Attack.t) -> a.Attack.name) all

(* ---------------- engine ---------------- *)

type cell = { attack : string; verdict : Attack.verdict }

type row = {
  subject : string;
  scheme : string;
  key_bits : int;
  cells : cell list;
}

type matrix = { attacks : string list; rows : row list }

(* grid size is a pure function of the workload; verdict counts can
   depend on wall-clock budgets, so they stay unstable *)
let m_cells =
  Obs.counter ~stable:true ~help:"battery (subject x attack) cells run"
    "battery_cells"

let m_broken = Obs.counter ~help:"battery cells broken" "battery_broken"

let run_attack budget (a : Attack.t) s =
  Obs.incr m_cells;
  Obs.with_span ("attack." ^ a.Attack.name) @@ fun () ->
  let v = a.Attack.run budget s in
  (match v with Attack.Broken _ -> Obs.incr m_broken | _ -> ());
  { attack = a.Attack.name; verdict = v }

let run ?jobs ?(attacks = all) ~budget subjects =
  Obs.with_span "battery" @@ fun () ->
  (* the cells get copies of the subjects that carry this run's search
     tables, so a SAT search two cells ask for (the sat cell's and
     portfolio racer 0's) runs once, and no run reuses another's *)
  let subs = Array.of_list (List.map Attack.with_searches subjects) in
  let atks = Array.of_list attacks in
  let na = Array.length atks in
  (* one pool task per (subject, attack) cell, subject-major; results
     are reassembled by index, so the matrix is byte-identical at any
     SHELL_JOBS (given deterministic budgets — see Attack's contract) *)
  let grid =
    Array.init (Array.length subs * na) (fun i -> (i / na, i mod na))
  in
  let cells =
    Pool.map ?jobs (fun (si, ai) -> run_attack budget atks.(ai) subs.(si)) grid
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun si (s : Attack.subject) ->
           {
             subject = s.Attack.label;
             scheme = s.Attack.locked.Locked.scheme;
             key_bits = Locked.key_bits s.Attack.locked;
             cells = Array.to_list (Array.sub cells (si * na) na);
           })
         subs)
  in
  { attacks = List.map (fun (a : Attack.t) -> a.Attack.name) attacks; rows }

(* ---------------- rendering ---------------- *)

let key_string key =
  String.init (Array.length key) (fun i -> if key.(i) then '1' else '0')

(* stable by construction: [elapsed] is deliberately omitted so the
   JSON is byte-diffable across job counts and machines *)
let stats_fields (st : Attack.stats) =
  [
    ("iterations", Jsonw.Int st.Attack.iterations);
    ("oracle_queries", Jsonw.Int st.Attack.oracle_queries);
    ("conflicts", Jsonw.Int st.Attack.conflicts);
    ("key_bits", Jsonw.Int st.Attack.key_bits);
    ("recovered_bits", Jsonw.Int st.Attack.recovered_bits);
    ( "detail",
      Jsonw.Obj
        (List.map (fun (k, v) -> (k, Jsonw.Int v)) st.Attack.detail) );
  ]

let cell_json c =
  let base = [ ("attack", Jsonw.Str c.attack) ] in
  let rest =
    match c.verdict with
    | Attack.Broken (key, st) ->
        (("verdict", Jsonw.Str "broken") :: ("key", Jsonw.Str (key_string key))
        :: stats_fields st)
    | Attack.Resilient st ->
        ("verdict", Jsonw.Str "resilient") :: stats_fields st
    | Attack.Inapplicable why ->
        [ ("verdict", Jsonw.Str "n/a"); ("reason", Jsonw.Str why) ]
  in
  Jsonw.Obj (base @ rest)

let row_json r =
  Jsonw.Obj
    [
      ("subject", Jsonw.Str r.subject);
      ("scheme", Jsonw.Str r.scheme);
      ("key_bits", Jsonw.Int r.key_bits);
      ("cells", Jsonw.Arr (List.map cell_json r.cells));
    ]

let matrix_json m =
  Jsonw.Obj
    [
      ( "battery",
        Jsonw.Obj
          [
            ("version", Jsonw.Int 1);
            ("attacks", Jsonw.Arr (List.map (fun a -> Jsonw.Str a) m.attacks));
            ("rows", Jsonw.Arr (List.map row_json m.rows));
          ] );
    ]

let pp_matrix ppf m =
  let wsub =
    List.fold_left (fun w r -> max w (String.length r.subject)) 7 m.rows
  in
  let wcol =
    List.fold_left (fun w a -> max w (String.length a)) 9 m.attacks
  in
  Format.fprintf ppf "%-*s" wsub "subject";
  List.iter (fun a -> Format.fprintf ppf "  %-*s" wcol a) m.attacks;
  List.iter
    (fun r ->
      Format.fprintf ppf "@.%-*s" wsub r.subject;
      List.iter
        (fun c ->
          let s =
            match c.verdict with
            | Attack.Broken _ -> "BROKEN"
            | Attack.Resilient _ -> "resilient"
            | Attack.Inapplicable _ -> "n/a"
          in
          Format.fprintf ppf "  %-*s" wcol s)
        r.cells)
    m.rows
