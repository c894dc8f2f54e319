(* Percentiles, host normalisation and the other arithmetic the report
   rests on; pure, so the tests can pin each rule. *)

(* Kernel time, in ms, at the reference host speed: a normalised value
   reads as milliseconds on a host where the kernel takes this long. *)
let reference_kernel_ms = 8.0

(* An interval flanked by kernels of [before] and [after] ms. *)
let normalise ~before ~after raw_ms =
  raw_ms *. reference_kernel_ms /. ((before +. after) /. 2.)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of [p] among [n] samples: the smallest sample
   with at least [p] of the samples at or below it. *)
let rank p n = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let nearest_rank p xs =
  match xs with
  | [] -> None
  | _ ->
      let a = sorted xs in
      Some a.(rank p (Array.length a) - 1)

let median xs = nearest_rank 0.5 xs

(* p90 is reported only when at least ten samples lie beyond it. *)
let min_p90_samples = 100

let p90 xs =
  if List.length xs < min_p90_samples then None else nearest_rank 0.9 xs

let sum xs = List.fold_left ( +. ) 0. xs

(* ops per second from per-op times in ms *)
let rate_per_s = function
  | [] -> None
  | ms -> Some (float_of_int (List.length ms) *. 1000. /. sum ms)

let geomean xs =
  exp (sum (List.map log xs) /. float_of_int (List.length xs))
