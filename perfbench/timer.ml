(* Timed intervals flanked by reference-kernel runs. The kernel runs only
   while this process is idle; the kernel after one interval doubles as
   the kernel before the next, unless untimed work ran in between
   ([dirty]). *)

type t = {
  kernel : Kernel.t;
  mutable last : float option;
  mutable calib : float list;  (** every kernel time, ms *)
}

type sample = { raw_ms : float; before : float; after : float }

(* A sub-interval of a timed block, normalised by the block's kernels. *)
let norm_part s raw_ms = Stats.normalise ~before:s.before ~after:s.after raw_ms

let norm_ms s = norm_part s s.raw_ms

let create kernel =
  (* let the helper's heap reach its steady state first *)
  for _ = 1 to 10 do
    ignore (Kernel.measure kernel)
  done;
  { kernel; last = None; calib = [] }

let calibrate t =
  let k = Kernel.measure t.kernel in
  t.calib <- k :: t.calib;
  k

let dirty t = t.last <- None

let now_ms () = 1000. *. Shell_util.Clock.now ()

let time t f =
  let before = match t.last with Some k -> k | None -> calibrate t in
  t.last <- None;
  let t0 = now_ms () in
  let r = f () in
  let raw_ms = now_ms () -. t0 in
  let after = calibrate t in
  t.last <- Some after;
  (r, { raw_ms; before; after })
