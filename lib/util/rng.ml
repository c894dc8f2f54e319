(* Splitmix64: fast, high-quality, trivially seedable. The golden-gamma
   constant and the mixing rounds follow Steele, Lea & Flood (OOPSLA'14). *)

(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable
   [int64] record field would box a fresh Int64 on every draw. With
   [bits64] inlined, [int] and [bool] allocate nothing per draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get t = Bytes.get_int64_ne t 0
let[@inline] set t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let split t = of_state (bits64 t)

let child t i =
  if i < 0 then invalid_arg "Rng.child: negative index";
  (* Perturb the current state by a per-index multiple of the gamma and
     re-mix; the parent's own stream is left untouched. *)
  of_state (mix (Int64.add (get t) (Int64.mul (Int64.of_int (i + 1)) golden_gamma)))

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split t)

(* Keep 62 bits so the value stays non-negative in OCaml's 63-bit int;
   on 64-bit OCaml [max_int] is exactly 2^62 - 1, the largest raw draw. *)
let bits62_max = max_int

(* Rejection sampling: [raw mod bound] alone over-weights the low
   residues whenever [bound] does not divide 2^62. Redraw in the
   (vanishingly rare for small bounds) tail where the last, partial
   block of residues starts. Top-level, so no closure per call. *)
let rec draw_below t bound =
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  let r = raw mod bound in
  if raw - r > bits62_max - bound + 1 then draw_below t bound else r

let int t bound =
  assert (bound > 0);
  draw_below t bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let first_bool seed =
  Int64.logand (mix (Int64.add (Int64.of_int seed) golden_gamma)) 1L = 1L

(* Packed-vector helpers for the word-level simulator. The contract is
   stream compatibility with the scalar path: bit [i] of [word t n] is
   exactly the [i]-th [bool t] draw, so code that switches between
   scalar and packed generation consumes the identical RNG stream and
   stays byte-reproducible at any SHELL_JOBS. *)
let word t n =
  if n < 0 || n > Sys.int_size then invalid_arg "Rng.word: bad width";
  let w = ref 0 in
  for i = 0 to n - 1 do
    if bool t then w := !w lor (1 lsl i)
  done;
  !w

let vectors_packed ?(lanes = Sys.int_size) t ~vectors ~bits =
  if lanes < 1 || lanes > Sys.int_size then
    invalid_arg "Rng.vectors_packed: bad lane count";
  if vectors < 0 || bits < 0 then invalid_arg "Rng.vectors_packed";
  let n_chunks = (vectors + lanes - 1) / lanes in
  let chunks =
    Array.init n_chunks (fun _ -> Array.make bits 0)
  in
  (* Vector-major draw order: vector v's bits are drawn consecutively,
     exactly as a scalar [Array.init bits (fun _ -> bool t)] per vector
     would. Lane [v mod lanes] of chunk [v / lanes] holds vector v. *)
  for v = 0 to vectors - 1 do
    let words = chunks.(v / lanes) in
    let lane = v mod lanes in
    for i = 0 to bits - 1 do
      if bool t then words.(i) <- words.(i) lor (1 lsl lane)
    done
  done;
  chunks

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choice t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let sample t n arr =
  assert (n <= Array.length arr);
  let pool = Array.copy arr in
  shuffle t pool;
  Array.sub pool 0 n
