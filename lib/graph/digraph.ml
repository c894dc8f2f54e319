type t = {
  n : int;
  succs : int array array;
  preds : int array array;
  num_edges : int;
}

let make ~n ~edges =
  let seen = Hashtbl.create (List.length edges) in
  let succs = Array.make n [] and preds = Array.make n [] in
  let count = ref 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Digraph.make";
      if not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.add seen (u, v) ();
        succs.(u) <- v :: succs.(u);
        preds.(v) <- u :: preds.(v);
        incr count
      end)
    edges;
  {
    n;
    succs = Array.map (fun l -> Array.of_list (List.rev l)) succs;
    preds = Array.map (fun l -> Array.of_list (List.rev l)) preds;
    num_edges = !count;
  }

let of_succs succs =
  let n = Array.length succs in
  let indeg = Array.make n 0 in
  Array.iter (Array.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) succs;
  let preds = Array.map (fun d -> Array.make d 0) indeg in
  let fill = Array.make n 0 in
  Array.iteri
    (fun u vs ->
      Array.iter
        (fun v ->
          preds.(v).(fill.(v)) <- u;
          fill.(v) <- fill.(v) + 1)
        vs)
    succs;
  { n; succs; preds; num_edges = Array.fold_left ( + ) 0 indeg }

let n t = t.n
let num_edges t = t.num_edges
let succs t u = t.succs.(u)
let preds t u = t.preds.(u)
let out_degree t u = Array.length t.succs.(u)
let in_degree t u = Array.length t.preds.(u)
let has_edge t u v = Array.exists (Int.equal v) t.succs.(u)

let bfs_from t ?(reverse = false) sources =
  let next = if reverse then t.preds else t.succs in
  let dist = Array.make t.n max_int in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) = max_int then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      next.(u)
  done;
  dist

let reachable t ?reverse sources =
  Array.map (fun d -> d <> max_int) (bfs_from t ?reverse sources)

let coverage t seeds =
  if t.n = 0 then 0.0
  else begin
    let fwd = reachable t seeds and bwd = reachable t ~reverse:true seeds in
    let covered = ref 0 in
    for v = 0 to t.n - 1 do
      if fwd.(v) || bwd.(v) then incr covered
    done;
    float_of_int !covered /. float_of_int t.n
  end

let topo_order t =
  let indeg = Array.init t.n (fun v -> Array.length t.preds.(v)) in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = Array.make t.n 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!k) <- u;
    incr k;
    Array.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      t.succs.(u)
  done;
  if !k = t.n then Some order else None

(* Iterative Tarjan (explicit stack) to stay safe on deep circuits. *)
let sccs t =
  let index = Array.make t.n (-1) in
  let lowlink = Array.make t.n 0 in
  let on_stack = Array.make t.n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let visit root =
    (* call stack of (node, next-successor position) *)
    let call = ref [ (root, ref 0) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !call <> [] do
      match !call with
      | [] -> ()
      | (u, pos) :: rest ->
          if !pos < Array.length t.succs.(u) then begin
            let v = t.succs.(u).(!pos) in
            incr pos;
            if index.(v) = -1 then begin
              index.(v) <- !next_index;
              lowlink.(v) <- !next_index;
              incr next_index;
              stack := v :: !stack;
              on_stack.(v) <- true;
              call := (v, ref 0) :: !call
            end
            else if on_stack.(v) then
              lowlink.(u) <- min lowlink.(u) index.(v)
          end
          else begin
            call := rest;
            (match rest with
            | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(u)
            | [] -> ());
            if lowlink.(u) = index.(u) then begin
              let rec pop acc =
                match !stack with
                | [] -> acc
                | v :: tl ->
                    stack := tl;
                    on_stack.(v) <- false;
                    if v = u then v :: acc else pop (v :: acc)
              in
              components := pop [] :: !components
            end
          end
    done
  in
  for v = 0 to t.n - 1 do
    if index.(v) = -1 then visit v
  done;
  List.rev !components

let is_cyclic t =
  List.exists (function [ v ] -> has_edge t v v | _ :: _ :: _ -> true | [] -> false) (sccs t)

let transpose t =
  { n = t.n; succs = t.preds; preds = t.succs; num_edges = t.num_edges }
