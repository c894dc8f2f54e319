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

(* Iterative Tarjan over CSR successors on flat int arrays: the
   component stack and the call stack (node, next successor slot) are
   arrays of at most [n] entries, since each node enters each once. A
   finished component is the top of the component stack, in discovery
   order. *)
let iter_csr_sccs ~off ~adj f =
  let n = Array.length off - 1 in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let call_node = Array.make n 0 in
  let call_pos = Array.make n 0 in
  let depth = ref 0 in
  let next_index = ref 0 in
  let discover v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    Bytes.unsafe_set on_stack v '\001';
    call_node.(!depth) <- v;
    call_pos.(!depth) <- off.(v);
    incr depth
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      discover root;
      while !depth > 0 do
        let top = !depth - 1 in
        let u = call_node.(top) and pos = call_pos.(top) in
        if pos < off.(u + 1) then begin
          let v = adj.(pos) in
          call_pos.(top) <- pos + 1;
          if index.(v) = -1 then discover v
          else if
            Bytes.unsafe_get on_stack v = '\001' && index.(v) < lowlink.(u)
          then lowlink.(u) <- index.(v)
        end
        else begin
          depth := top;
          if top > 0 then begin
            let p = call_node.(top - 1) in
            if lowlink.(u) < lowlink.(p) then lowlink.(p) <- lowlink.(u)
          end;
          if lowlink.(u) = index.(u) then begin
            let hi = !sp in
            let rec pop () =
              decr sp;
              let v = stack.(!sp) in
              Bytes.unsafe_set on_stack v '\000';
              if v <> u then pop ()
            in
            pop ();
            f stack !sp hi
          end
        end
      done
    end
  done

let sccs t =
  let off = Array.make (t.n + 1) 0 in
  for u = 0 to t.n - 1 do
    off.(u + 1) <- off.(u) + Array.length t.succs.(u)
  done;
  let adj = Array.make off.(t.n) 0 in
  Array.iteri
    (fun u vs -> Array.blit vs 0 adj off.(u) (Array.length vs))
    t.succs;
  let components = ref [] in
  iter_csr_sccs ~off ~adj (fun stack lo hi ->
      let rec members k acc =
        if k < lo then acc else members (k - 1) (stack.(k) :: acc)
      in
      components := members (hi - 1) [] :: !components);
  List.rev !components
