let rescale arr =
  let m = Array.fold_left Float.max 0.0 arr in
  if m > 0.0 then Array.map (fun x -> x /. m) arr else arr

let in_degree g =
  rescale (Array.init (Digraph.n g) (fun v -> float_of_int (Digraph.in_degree g v)))

let out_degree g =
  rescale (Array.init (Digraph.n g) (fun v -> float_of_int (Digraph.out_degree g v)))

(* Harmonic closeness against the I/O boundary: the average of
   1/(1+d_from_sources) and 1/(1+d_to_sinks). Unreachable distance
   contributes zero, so deeply buried nodes score low, as intended. *)
let closeness g ~sources ~sinks =
  let n = Digraph.n g in
  let from_src = Digraph.bfs_from g sources in
  let to_snk = Digraph.bfs_from g ~reverse:true sinks in
  let inv d = if d = max_int then 0.0 else 1.0 /. (1.0 +. float_of_int d) in
  rescale (Array.init n (fun v -> (inv from_src.(v) +. inv to_snk.(v)) /. 2.0))

(* Brandes (2001), restricted: shortest-path counting from each source,
   dependency accumulation seeded only at sink nodes, so the score
   counts occurrences on source->sink geodesics. *)
type brandes_scratch = {
  sigma : float array;
  dist : int array;
  delta : float array;
  preds_on_sp : int list array;
}

let make_scratch n =
  {
    sigma = Array.make n 0.0;
    dist = Array.make n (-1);
    delta = Array.make n 0.0;
    preds_on_sp = Array.make n [];
  }

(* One Brandes pass from source [s]: adds each node's dependency into
   [bc]. The additions into [bc] are the only writes outside the
   scratch, so passes with private [bc] arrays are independent. *)
let brandes_pass g ~is_sink sc bc s =
  let n = Digraph.n g in
  let { sigma; dist; delta; preds_on_sp } = sc in
  Array.fill sigma 0 n 0.0;
  Array.fill dist 0 n (-1);
  Array.fill delta 0 n 0.0;
  Array.fill preds_on_sp 0 n [];
  sigma.(s) <- 1.0;
  dist.(s) <- 0;
  let order = ref [] in
  let queue = Queue.create () in
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    Array.iter
      (fun v ->
        if dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end;
        if dist.(v) = dist.(u) + 1 then begin
          sigma.(v) <- sigma.(v) +. sigma.(u);
          preds_on_sp.(v) <- u :: preds_on_sp.(v)
        end)
      (Digraph.succs g u)
  done;
  (* accumulate in reverse BFS order *)
  List.iter
    (fun w ->
      let seed = if is_sink.(w) && w <> s then 1.0 else 0.0 in
      let d = seed +. delta.(w) in
      List.iter
        (fun v ->
          if sigma.(w) > 0.0 then
            delta.(v) <- delta.(v) +. (sigma.(v) /. sigma.(w)) *. d)
        preds_on_sp.(w);
      if w <> s then bc.(w) <- bc.(w) +. delta.(w))
    !order

let betweenness ?jobs g ~sources ~sinks =
  let n = Digraph.n g in
  let is_sink = Array.make n false in
  List.iter (fun v -> is_sink.(v) <- true) sinks;
  (* Each pass writes a private accumulator; the accumulators are
     folded elementwise in source order. Every bc.(w) then receives
     exactly the sequence of additions one shared accumulator would —
     float addition is not associative, so chunk-level partial sums
     would NOT reproduce it; per-source arrays do, bit for bit. *)
  let parts =
    Shell_util.Pool.map ?jobs
      (fun s ->
        let bc = Array.make n 0.0 in
        brandes_pass g ~is_sink (make_scratch n) bc s;
        bc)
      (Array.of_list sources)
  in
  let bc = Array.make n 0.0 in
  Array.iter
    (fun part ->
      for w = 0 to n - 1 do
        bc.(w) <- bc.(w) +. part.(w)
      done)
    parts;
  rescale bc

let eigenvector ?(iters = 50) ?(weight = fun _ -> 1.0) g =
  let n = Digraph.n g in
  if n = 0 then [||]
  else begin
    let x = Array.make n (1.0 /. float_of_int n) in
    let nxt = Array.make n 0.0 in
    (* damped (lazy) iteration: plain power iteration oscillates on
       bipartite graphs such as stars *)
    for _ = 1 to iters do
      Array.fill nxt 0 n 0.0;
      for u = 0 to n - 1 do
        let contrib = x.(u) *. weight u in
        Array.iter (fun v -> nxt.(v) <- nxt.(v) +. contrib) (Digraph.succs g u);
        Array.iter (fun v -> nxt.(v) <- nxt.(v) +. contrib) (Digraph.preds g u)
      done;
      for v = 0 to n - 1 do
        nxt.(v) <- (0.5 *. nxt.(v)) +. (0.5 *. x.(v))
      done;
      let norm = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 nxt) in
      let norm = if norm > 0.0 then norm else 1.0 in
      for v = 0 to n - 1 do
        x.(v) <- nxt.(v) /. norm
      done
    done;
    rescale x
  end
