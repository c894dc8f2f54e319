(* Tests for shell_locking: every scheme must be correct under its key
   and (almost surely) wrong under a perturbed key. *)

module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module L = Shell_locking
module Rng = Shell_util.Rng
module Sim = Shell_fuzz.Ref_sim

let victim seed =
  let rng = Rng.create seed in
  let nl = N.create "victim" in
  let pool =
    ref (Array.init 8 (fun i -> N.add_input nl (Printf.sprintf "i%d" i)))
  in
  for _ = 1 to 120 do
    let a = Rng.choice rng !pool and b = Rng.choice rng !pool in
    let kinds = [| Cell.And; Cell.Or; Cell.Xor; Cell.Nand; Cell.Nor |] in
    let out = N.gate nl kinds.(Rng.int rng 5) [| a; b |] in
    pool := Array.append !pool [| out |]
  done;
  for i = 0 to 4 do
    N.add_output nl (Printf.sprintf "o%d" i) (!pool).(Array.length !pool - 1 - i)
  done;
  nl

let wrong_key_differs ~original (lk : L.Locked.t) =
  (* flipping every bit should (for these schemes) change behaviour *)
  if Array.length lk.L.Locked.key = 0 then true
  else begin
    let wrong = Array.map not lk.L.Locked.key in
    not (L.Locked.verify ~original { lk with L.Locked.key = wrong })
  end

let check_scheme name mk =
  let nl = victim 1234 in
  let lk = mk nl in
  Alcotest.(check bool) (name ^ ": correct key works") true
    (L.Locked.verify ~original:nl lk);
  Alcotest.(check bool) (name ^ ": key bits exist") true
    (L.Locked.key_bits lk > 0);
  Alcotest.(check bool) (name ^ ": inverted key fails") true
    (wrong_key_differs ~original:nl lk)

let test_xor () = check_scheme "xor" (L.Schemes.xor_keys ~bits:12)
let test_random_lut () = check_scheme "random-lut" (L.Schemes.random_lut ~gates:8)

let test_heuristic_lut () =
  check_scheme "lut-lock" (L.Schemes.heuristic_lut ~gates:8)

let test_mux_routing () = check_scheme "full-lock" (L.Schemes.mux_routing ~width:8)
let test_mux_lut () = check_scheme "interlock" (L.Schemes.mux_lut ~width:8)

let test_xor_key_size () =
  let nl = victim 99 in
  let lk = L.Schemes.xor_keys ~bits:20 nl in
  Alcotest.(check int) "20 bits" 20 (L.Locked.key_bits lk)

let test_random_lut_key_size () =
  let nl = victim 99 in
  let lk = L.Schemes.random_lut ~gates:5 nl in
  (* 2-input gates and inverters: between 2 and 4 table bits each *)
  Alcotest.(check bool) "table bits" true
    (L.Locked.key_bits lk >= 10 && L.Locked.key_bits lk <= 20)

let test_no_back_to_back_luts () =
  let nl = victim 7 in
  let lk = L.Schemes.heuristic_lut ~gates:10 nl in
  (* key-LUT replacement keeps the original gates in place; the check
     here is structural sanity: the locked netlist validates and grew *)
  (match N.validate lk.L.Locked.locked with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Shell_util.Diag.to_string e));
  Alcotest.(check bool) "netlist grew" true
    (N.num_cells lk.L.Locked.locked > N.num_cells nl)

let test_mux_routing_width_rounding () =
  let nl = victim 3 in
  let lk = L.Schemes.mux_routing ~width:13 nl in
  (* width rounds down to 8: omega network has 8/2 * 3 = 12 switches *)
  Alcotest.(check int) "12 switch keys" 12 (L.Locked.key_bits lk)

let test_omega_identity () =
  let nl = N.create "w" in
  let ins = Array.init 4 (fun i -> N.add_input nl (Printf.sprintf "x%d" i)) in
  let outs, key = L.Insertion.omega_network nl ~origin:"t" ~prefix:"k" ins in
  Array.iteri (fun i o -> N.add_output nl (Printf.sprintf "y%d" i) o) outs;
  Alcotest.(check int) "4 switches" 4 (Array.length key);
  Alcotest.(check bool) "identity key all false" true
    (Array.for_all (fun b -> not b) key);
  (* under the all-false key each output equals its input *)
  let sim = Sim.create nl in
  let keyv = Array.map (fun b -> b) key in
  for v = 0 to 15 do
    let ins_v = Array.init 4 (fun i -> v land (1 lsl i) <> 0) in
    let outs_v = Sim.eval_comb sim ~keys:keyv ins_v in
    Alcotest.(check (array bool)) "identity" ins_v outs_v
  done

let test_switch_crossing () =
  let nl = N.create "sw" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  let oa, ob, straight = L.Insertion.switch_2x2 nl ~origin:"t" ~name:"k" a b in
  N.add_output nl "oa" oa;
  N.add_output nl "ob" ob;
  Alcotest.(check bool) "straight is false" false straight;
  let sim = Sim.create nl in
  let st = Sim.eval_comb sim ~keys:[| false |] [| true; false |] in
  Alcotest.(check (array bool)) "straight" [| true; false |] st;
  let cr = Sim.eval_comb sim ~keys:[| true |] [| true; false |] in
  Alcotest.(check (array bool)) "crossed" [| false; true |] cr

let test_key_lut_truth () =
  let nl = N.create "kl" in
  let a = N.add_input nl "a" in
  let b = N.add_input nl "b" in
  (* truth table of XOR *)
  let out, key =
    L.Insertion.key_lut nl ~origin:"t" ~prefix:"p" ~ins:[| a; b |]
      ~truth:[| false; true; true; false |]
  in
  N.add_output nl "y" out;
  let sim = Sim.create nl in
  for v = 0 to 3 do
    let ins = [| v land 1 <> 0; v land 2 <> 0 |] in
    Alcotest.(check bool)
      (Printf.sprintf "row %d" v)
      (ins.(0) <> ins.(1))
      (Sim.eval_comb sim ~keys:key ins).(0)
  done

let test_locked_apply_key () =
  let nl = victim 55 in
  let lk = L.Schemes.xor_keys ~bits:6 nl in
  let bound = L.Locked.apply_key lk lk.L.Locked.key in
  Alcotest.(check int) "keys consumed" 0 (List.length (N.keys bound))

let suite =
  [
    ("xor keys", `Quick, test_xor);
    ("random lut", `Quick, test_random_lut);
    ("heuristic lut", `Quick, test_heuristic_lut);
    ("mux routing", `Quick, test_mux_routing);
    ("mux+lut", `Quick, test_mux_lut);
    ("xor key size", `Quick, test_xor_key_size);
    ("random lut key size", `Quick, test_random_lut_key_size);
    ("heuristic structural sanity", `Quick, test_no_back_to_back_luts);
    ("mux width rounding", `Quick, test_mux_routing_width_rounding);
    ("omega identity", `Quick, test_omega_identity);
    ("switch crossing", `Quick, test_switch_crossing);
    ("key lut truth", `Quick, test_key_lut_truth);
    ("apply key", `Quick, test_locked_apply_key);
  ]
