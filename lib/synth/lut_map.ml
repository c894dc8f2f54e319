module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab

type stats = { luts : int; levels : int; kept_cells : int }

type cut = { leaves : int array; depth : int }

let cuts_per_net = 8
let merge_budget = 400

(* Union of sorted leaf arrays; None when the union exceeds [k]. *)
let union_leaves k a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let rec go i j n =
    if n > k then None
    else if i = la && j = lb then Some (Array.sub out 0 n)
    else if i = la then begin
      out.(n) <- b.(j);
      go i (j + 1) (n + 1)
    end
    else if j = lb then begin
      out.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else if a.(i) = b.(j) then begin
      out.(n) <- a.(i);
      go (i + 1) (j + 1) (n + 1)
    end
    else if a.(i) < b.(j) then begin
      out.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else begin
      out.(n) <- b.(j);
      go i (j + 1) (n + 1)
    end
  in
  go 0 0 0

let map ?(k = 4) ?(boundary = fun _ -> false) src =
  if k < 2 || k > Truthtab.max_inputs then invalid_arg "Lut_map.map: k";
  let cells = Netlist.cells src in
  let n_nets = max (Netlist.num_nets src) 1 in
  let cuts : cut list array = Array.make n_nets [] in
  let best_depth = Array.make n_nets 0 in
  let is_source = Array.make n_nets false in
  let mark_source net =
    is_source.(net) <- true;
    cuts.(net) <- [ { leaves = [| net |]; depth = 0 } ]
  in
  Array.iter mark_source (Netlist.input_nets src);
  Array.iter mark_source (Netlist.key_nets src);
  let is_boundary = Array.make (Array.length cells) false in
  Array.iteri
    (fun i c ->
      if Cell.is_sequential c.Cell.kind then begin
        is_boundary.(i) <- true;
        mark_source c.Cell.out
      end)
    cells;
  (* Phase 1: cut enumeration in topological order. *)
  let order = Netlist.topo_order src in
  Array.iter
    (fun ci ->
      let c = cells.(ci) in
      if not (Cell.is_sequential c.Cell.kind) then begin
        let arity = Array.length c.Cell.ins in
        let out = c.Cell.out in
        if
          arity > k || boundary c
          || (match c.Cell.kind with Cell.Const _ -> true | _ -> false)
        then begin
          is_boundary.(ci) <- true;
          is_source.(out) <- true;
          cuts.(out) <- [ { leaves = [| out |]; depth = 0 } ];
          best_depth.(out) <- 0
        end
        else begin
          let per_input = Array.map (fun net -> cuts.(net)) c.Cell.ins in
          let acc = ref [] in
          let budget = ref merge_budget in
          (* Depth-first product of the input cut lists. A cut's depth
             is recomputed from its merged leaves: absorbing an input's
             cone means arrivals come from that cone's leaves. *)
          let rec product i leaves =
            if !budget > 0 then
              if i = arity then begin
                decr budget;
                let depth =
                  1 + Array.fold_left (fun m l -> max m best_depth.(l)) 0 leaves
                in
                acc := { leaves; depth } :: !acc
              end
              else
                List.iter
                  (fun cut ->
                    match union_leaves k leaves cut.leaves with
                    | Some merged -> product (i + 1) merged
                    | None -> ())
                  per_input.(i)
          in
          product 0 [||];
          let compare_cuts a b =
            match compare a.depth b.depth with
            | 0 -> compare (Array.length a.leaves) (Array.length b.leaves)
            | c -> c
          in
          let sorted = List.sort compare_cuts !acc in
          let rec take n = function
            | [] -> []
            | _ when n = 0 -> []
            | x :: tl -> x :: take (n - 1) tl
          in
          let best = take cuts_per_net sorted in
          (* keep the trivial cut so downstream merges can stop here *)
          let trivial =
            { leaves = [| out |];
              depth = (match best with c :: _ -> c.depth | [] -> 0) }
          in
          cuts.(out) <- best @ [ trivial ];
          best_depth.(out) <- (match best with c :: _ -> c.depth | [] -> 0)
        end
      end)
    order;
  (* Phase 2: cover extraction. *)
  let driver_of net = Netlist.driver src net in
  let required = Queue.create () in
  let required_seen = Array.make n_nets false in
  let require net =
    if not required_seen.(net) then begin
      required_seen.(net) <- true;
      Queue.add net required
    end
  in
  Array.iter require (Netlist.output_nets src);
  Array.iteri
    (fun i c ->
      if is_boundary.(i) || Cell.is_sequential c.Cell.kind then
        Array.iter require c.Cell.ins)
    cells;
  let chosen : (int * cut) list ref = ref [] in
  while not (Queue.is_empty required) do
    let net = Queue.pop required in
    if not is_source.(net) then begin
      match cuts.(net) with
      | [] -> failwith "Lut_map: net without cuts"
      | best :: _ ->
          (* never pick the trivial self-cut as an implementation *)
          let cut =
            if Array.length best.leaves = 1 && best.leaves.(0) = net then
              match cuts.(net) with
              | _ :: c :: _ -> c
              | _ -> failwith "Lut_map: only trivial cut available"
            else best
          in
          chosen := (net, cut) :: !chosen;
          Array.iter require cut.leaves
    end
  done;
  (* Phase 3: build the mapped netlist. *)
  let dst = Netlist.create (Netlist.name src) in
  let net_map = Array.make n_nets (-1) in
  List.iter
    (fun (nm, net) -> net_map.(net) <- Netlist.add_input dst nm)
    (Netlist.inputs src);
  List.iter
    (fun (nm, net) -> net_map.(net) <- Netlist.add_key dst nm)
    (Netlist.keys src);
  let map_net net =
    if net_map.(net) = -1 then net_map.(net) <- Netlist.new_net dst;
    net_map.(net)
  in
  (* truth table of the cone from [leaves] to [root] *)
  let cone_tt root leaves =
    let leaf_pos = Hashtbl.create 8 in
    Array.iteri (fun i l -> Hashtbl.add leaf_pos l i) leaves;
    let arity = Array.length leaves in
    Truthtab.of_fun ~arity (fun ins ->
        let memo = Hashtbl.create 16 in
        let rec eval net =
          match Hashtbl.find_opt leaf_pos net with
          | Some i -> ins.(i)
          | None -> (
              match Hashtbl.find_opt memo net with
              | Some v -> v
              | None ->
                  let ci =
                    match driver_of net with
                    | Some ci -> ci
                    | None -> failwith "Lut_map: cone hit undriven net"
                  in
                  let c = cells.(ci) in
                  let v = Cell.eval c.Cell.kind (Array.map eval c.Cell.ins) in
                  Hashtbl.add memo net v;
                  v)
        in
        eval root)
  in
  let luts = ref 0 in
  List.iter
    (fun (net, cut) ->
      let origin =
        match driver_of net with
        | Some ci -> cells.(ci).Cell.origin
        | None -> ""
      in
      let tt = cone_tt net cut.leaves in
      let ins = Array.map map_net cut.leaves in
      let out = map_net net in
      incr luts;
      Netlist.add_cell dst (Cell.make ~origin (Cell.Lut tt) ins out))
    !chosen;
  let kept = ref 0 in
  Array.iteri
    (fun i c ->
      if is_boundary.(i) || Cell.is_sequential c.Cell.kind then begin
        incr kept;
        Netlist.add_cell dst
          (Cell.make ~origin:c.Cell.origin c.Cell.kind
             (Array.map map_net c.Cell.ins)
             (map_net c.Cell.out))
      end)
    cells;
  List.iter
    (fun (nm, net) -> Netlist.add_output dst nm (map_net net))
    (Netlist.outputs src);
  (* LUT network depth *)
  let levels =
    let lv = Array.make (max (Netlist.num_nets dst) 1) 0 in
    let order = Netlist.topo_order dst in
    let dcells = Netlist.cells dst in
    let deepest = ref 0 in
    Array.iter
      (fun ci ->
        let c = dcells.(ci) in
        match c.Cell.kind with
        | Cell.Lut _ ->
            let m = Array.fold_left (fun acc n -> max acc lv.(n)) 0 c.Cell.ins in
            lv.(c.Cell.out) <- m + 1;
            deepest := max !deepest (m + 1)
        | _ ->
            lv.(c.Cell.out) <-
              Array.fold_left (fun acc n -> max acc lv.(n)) 0 c.Cell.ins)
      order;
    !deepest
  in
  (dst, { luts = !luts; levels; kept_cells = !kept })

