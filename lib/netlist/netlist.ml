module Vec = Shell_util.Vec
module Truthtab = Shell_util.Truthtab
module Diag = Shell_util.Diag

type t = {
  name : string;
  mutable n_nets : int;
  mutable inputs : (string * int) list;  (* reversed; see accessors *)
  mutable outputs : (string * int) list;
  mutable keys : (string * int) list;
  cells : Cell.t Vec.t;
  (* Memos over the fields above, cleared by every mutation of what they
     read. Each is built in full before it is published, so a
     domain reading one sees either [None] or a finished value; domains
     racing on an empty memo each build the same value. *)
  driver_memo : int array option Atomic.t;  (* net -> cell index or -1 *)
  fanout_memo : int list array option Atomic.t;
  order_memo : int array option option Atomic.t;
      (* [Some None]: the combinational part is cyclic *)
  fingerprint_memo : string option Atomic.t;
      (* reads ports and origins too: [add_output] and [set_origin]
         clear it as well *)
}

let create name =
  {
    name;
    n_nets = 0;
    inputs = [];
    outputs = [];
    keys = [];
    cells = Vec.create ();
    driver_memo = Atomic.make None;
    fanout_memo = Atomic.make None;
    order_memo = Atomic.make None;
    fingerprint_memo = Atomic.make None;
  }

let name t = t.name

(* [build] is a closed function of [t], so a hit allocates nothing. *)
let memo cell build t =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      let v = build t in
      Atomic.set cell (Some v);
      v

(* Netlists are built one net and one cell at a time, so test before
   paying for an atomic write. *)
let clear cell = if Option.is_some (Atomic.get cell) then Atomic.set cell None

let invalidate t =
  clear t.driver_memo;
  clear t.fanout_memo;
  clear t.order_memo;
  clear t.fingerprint_memo

let new_net t =
  let id = t.n_nets in
  t.n_nets <- id + 1;
  invalidate t;
  id

type invalid =
  | Bad_net_id of { port : string; net : int }
  | Duplicate_port of { port : string }
  | Multiple_drivers of { net : int; drivers : int }
  | Undriven_output of { port : string; net : int }
  | Undriven_read of { net : int }

type Diag.payload += Invalid of invalid

let () =
  Diag.register_printer (function
    | Invalid (Bad_net_id { port; net }) ->
        Some (Printf.sprintf "bad-net-id port=%s net=%d" port net)
    | Invalid (Duplicate_port { port }) ->
        Some (Printf.sprintf "duplicate-port %s" port)
    | Invalid (Multiple_drivers { net; drivers }) ->
        Some (Printf.sprintf "multiple-drivers net=%d drivers=%d" net drivers)
    | Invalid (Undriven_output { port; net }) ->
        Some (Printf.sprintf "undriven-output port=%s net=%d" port net)
    | Invalid (Undriven_read { net }) ->
        Some (Printf.sprintf "undriven-read net=%d" net)
    | _ -> None)

let add_input t nm =
  let net = new_net t in
  t.inputs <- (nm, net) :: t.inputs;
  net

let add_key t nm =
  let net = new_net t in
  t.keys <- (nm, net) :: t.keys;
  net

let add_output t nm net =
  if net < 0 || net >= t.n_nets then
    Diag.failf
      ~payload:(Invalid (Bad_net_id { port = nm; net }))
      "Netlist.add_output: port %s names net %d outside [0, %d)" nm net
      t.n_nets;
  t.outputs <- (nm, net) :: t.outputs;
  clear t.fingerprint_memo

(* A raw [Cell.t] record can carry any [ins]; refuse the ones
   [Cell.make] would, so every stored cell has at most six inputs. *)
let check_arity fn (c : Cell.t) =
  let want = Cell.arity c.Cell.kind in
  if Array.length c.Cell.ins <> want then
    invalid_arg
      (Printf.sprintf "Netlist.%s: %d inputs where %d expected" fn
         (Array.length c.Cell.ins) want)

let add_cell t c =
  let check n = if n < 0 || n >= t.n_nets then invalid_arg "Netlist.add_cell: bad net" in
  check_arity "add_cell" c;
  Array.iter check c.Cell.ins;
  check c.Cell.out;
  Vec.push t.cells c;
  invalidate t

let set_origin t i origin =
  let c = Vec.get t.cells i in
  Vec.set t.cells i { c with Cell.origin };
  clear t.fingerprint_memo

let gate ?(origin = "") t kind ins =
  let out = new_net t in
  add_cell t (Cell.make ~origin kind ins out);
  out

let and_ ?origin t a b = gate ?origin t Cell.And [| a; b |]
let or_ ?origin t a b = gate ?origin t Cell.Or [| a; b |]
let nand_ ?origin t a b = gate ?origin t Cell.Nand [| a; b |]
let nor_ ?origin t a b = gate ?origin t Cell.Nor [| a; b |]
let xor_ ?origin t a b = gate ?origin t Cell.Xor [| a; b |]
let xnor_ ?origin t a b = gate ?origin t Cell.Xnor [| a; b |]
let not_ ?origin t a = gate ?origin t Cell.Not [| a |]
let buf ?origin t a = gate ?origin t Cell.Buf [| a |]
let mux2 ?origin t ~sel ~a ~b = gate ?origin t Cell.Mux2 [| sel; a; b |]

let mux4 ?origin t ~s0 ~s1 data =
  if Array.length data <> 4 then invalid_arg "Netlist.mux4: need 4 data nets";
  gate ?origin t Cell.Mux4 [| s0; s1; data.(0); data.(1); data.(2); data.(3) |]

let lut ?origin t tt ins = gate ?origin t (Cell.Lut tt) ins
let const ?origin t b = gate ?origin t (Cell.Const b) [||]
let dff ?origin t d = gate ?origin t Cell.Dff [| d |]

let num_nets t = t.n_nets
let num_cells t = Vec.length t.cells
let cells t = Vec.contents t.cells
let cell t i = Vec.get t.cells i
let inputs t = List.rev t.inputs
let outputs t = List.rev t.outputs
let keys t = List.rev t.keys
let input_nets t = Array.of_list (List.map snd (inputs t))
let output_nets t = Array.of_list (List.map snd (outputs t))
let key_nets t = Array.of_list (List.map snd (keys t))

let build_driver_table t =
  let d = Array.make (max t.n_nets 1) (-1) in
  Vec.iteri (fun i c -> d.(c.Cell.out) <- i) t.cells;
  d

let driver_table t = memo t.driver_memo build_driver_table t

let driver_index t net =
  let d = driver_table t in
  if net < 0 || net >= t.n_nets then -1 else d.(net)

let driver t net = match driver_index t net with -1 -> None | i -> Some i

(* Prepending while walking the cells from the last one down leaves
   each list ascending, so [fanout] hands it out as it is. *)
let build_fanout_table t =
  let f = Array.make (max t.n_nets 1) [] in
  for i = Vec.length t.cells - 1 downto 0 do
    Array.iter (fun n -> f.(n) <- i :: f.(n)) (Vec.get t.cells i).Cell.ins
  done;
  f

let fanout_table t = memo t.fanout_memo build_fanout_table t

let fanout t net =
  let f = fanout_table t in
  if net < 0 || net >= t.n_nets then [] else f.(net)

let copy t =
  {
    t with
    cells = Vec.copy t.cells;
    driver_memo = Atomic.make None;
    fanout_memo = Atomic.make None;
    order_memo = Atomic.make None;
    fingerprint_memo = Atomic.make None;
  }

let map_cells t f =
  let t' = copy t in
  Array.iteri
    (fun i c ->
      let c' = f i c in
      check_arity "map_cells" c';
      Vec.set t'.cells i c')
    (cells t);
  t'

let filter_outputs t p =
  let t' = copy t in
  t'.outputs <- List.filter (fun (nm, _) -> p nm) t'.outputs;
  t'

let validate_all t =
  let errs = ref [] in
  let report payload fmt =
    Printf.ksprintf
      (fun m ->
        errs := Diag.make ~context:[ "validate"; t.name ] ~payload m :: !errs)
      fmt
  in
  (* port sanity: every port names an in-range net, names are unique
     within their class *)
  let seen = Hashtbl.create 16 in
  let check_port cls (nm, net) =
    if net < 0 || net >= t.n_nets then
      report (Invalid (Bad_net_id { port = nm; net }))
        "%s port %s names net n%d outside [0, %d)" cls nm net t.n_nets
    else if Hashtbl.mem seen (cls, nm) then
      report (Invalid (Duplicate_port { port = nm }))
        "duplicate %s port name %s" cls nm
    else Hashtbl.add seen (cls, nm) ()
  in
  List.iter (check_port "input") (List.rev t.inputs);
  List.iter (check_port "key") (List.rev t.keys);
  List.iter (check_port "output") (List.rev t.outputs);
  let drivers = Array.make (max t.n_nets 1) 0 in
  let mark net =
    if net >= 0 && net < t.n_nets then drivers.(net) <- drivers.(net) + 1
  in
  List.iter (fun (_, n) -> mark n) t.inputs;
  List.iter (fun (_, n) -> mark n) t.keys;
  Vec.iter (fun c -> mark c.Cell.out) t.cells;
  for net = 0 to t.n_nets - 1 do
    if drivers.(net) > 1 then
      report
        (Invalid (Multiple_drivers { net; drivers = drivers.(net) }))
        "net n%d has %d drivers" net drivers.(net)
  done;
  (* a dangling output is reported by port name, not just as a
     floating read *)
  List.iter
    (fun (nm, net) ->
      if net >= 0 && net < t.n_nets && drivers.(net) = 0 then
        report (Invalid (Undriven_output { port = nm; net }))
          "output %s reads undriven net n%d" nm net)
    (List.rev t.outputs);
  (* other floating nets are only an error when something reads them *)
  let reads = Array.make (max t.n_nets 1) false in
  Vec.iter
    (fun c -> Array.iter (fun n -> reads.(n) <- true) c.Cell.ins)
    t.cells;
  for net = 0 to t.n_nets - 1 do
    if reads.(net) && drivers.(net) = 0 then
      report (Invalid (Undriven_read { net }))
        "net n%d is read but never driven" net
  done;
  List.rev !errs

let validate t =
  match validate_all t with [] -> Ok () | d :: _ -> Error d

(* Structural fingerprint (FNV-1a over the whole construction) for the
   pass pipeline's input keys: two netlists with equal fingerprints are
   treated as the same pass input. Cheap — one linear scan, no
   allocation beyond the fold state. That state is an 8-byte buffer
   rather than an [int64 ref]: each step reads, mixes and stores the
   hash unboxed, where a ref would box a fresh [Int64] per value. *)
let fnv_prime = 0x100000001b3L

let digest t =
  let h = Bytes.create 8 in
  Bytes.set_int64_ne h 0 0xcbf29ce484222325L;
  let[@inline] mix64 v =
    Bytes.set_int64_ne h 0
      (Int64.mul (Int64.logxor (Bytes.get_int64_ne h 0) v) fnv_prime)
  in
  let mix i = mix64 (Int64.of_int i) in
  let mix_str s =
    for i = 0 to String.length s - 1 do
      mix (Char.code (String.unsafe_get s i))
    done;
    mix 0x11f
  in
  (* ports are stored newest first: mix the tail, then the head *)
  let rec mix_ports = function
    | [] -> ()
    | (nm, net) :: rest ->
        mix_ports rest;
        mix_str nm;
        mix net
  in
  mix_str t.name;
  mix t.n_nets;
  mix_ports t.inputs;
  mix 0x21;
  mix_ports t.keys;
  mix 0x22;
  mix_ports t.outputs;
  mix 0x23;
  Vec.iter
    (fun c ->
      (match c.Cell.kind with
      | Cell.And -> mix 1
      | Cell.Or -> mix 2
      | Cell.Nand -> mix 3
      | Cell.Nor -> mix 4
      | Cell.Xor -> mix 5
      | Cell.Xnor -> mix 6
      | Cell.Not -> mix 7
      | Cell.Buf -> mix 8
      | Cell.Mux2 -> mix 9
      | Cell.Mux4 -> mix 10
      | Cell.Lut tt ->
          mix 11;
          mix (Truthtab.arity tt);
          mix64 (Truthtab.bits tt)
      | Cell.Const b -> mix (if b then 12 else 13)
      | Cell.Dff -> mix 14
      | Cell.Config_latch -> mix 15);
      Array.iter mix c.Cell.ins;
      mix c.Cell.out;
      mix_str c.Cell.origin)
    t.cells;
  Printf.sprintf "%016Lx" (Bytes.get_int64_ne h 0)

let fingerprint t = memo t.fingerprint_memo digest t

(* Kahn's algorithm on the combinational dependency graph: an edge goes
   from the driver of each input net of a combinational cell to that
   cell. Sequential cells are sources (their output depends on the past
   only) but their inputs still have to be produced, so they appear in
   the order too, after their input cone. [None] when the combinational
   part is cyclic.

   The successors sit in one CSR array, one entry per read, newest
   reader first; the order array doubles as the FIFO queue. In-degrees
   fit a byte: [add_cell] and [map_cells] refuse a cell whose input
   count is not its kind's arity, which is at most six. *)
let sort t =
  let n = num_cells t in
  let d = driver_table t in
  let cells = t.cells in
  let seq = Bytes.create n in
  for i = 0 to n - 1 do
    let s = Cell.is_sequential (Vec.get cells i).Cell.kind in
    Bytes.unsafe_set seq i (if s then '\001' else '\000')
  done;
  (* [src net]: the combinational driver of [net], or -1 *)
  let src net =
    let j = d.(net) in
    if j >= 0 && Bytes.unsafe_get seq j = '\000' then j else -1
  in
  let indeg = Bytes.make n '\000' in
  (* [off.(j + 1)] counts cell [j]'s readers, then (summed) ends its
     row; filling each row from its end down leaves [off.(j + 1)] at
     the row's start, so row [j] is [off.(j + 1)] to [off.(j + 2)]. *)
  let off = Array.make (n + 2) 0 in
  let n_comb = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get seq i = '\000' then begin
      incr n_comb;
      let ins = (Vec.get cells i).Cell.ins in
      for k = 0 to Array.length ins - 1 do
        let j = src ins.(k) in
        if j >= 0 then begin
          Bytes.set_uint8 indeg i (Bytes.get_uint8 indeg i + 1);
          off.(j + 1) <- off.(j + 1) + 1
        end
      done
    end
  done;
  for j = 1 to n + 1 do
    off.(j) <- off.(j) + off.(j - 1)
  done;
  let adj = Array.make off.(n + 1) 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get seq i = '\000' then begin
      let ins = (Vec.get cells i).Cell.ins in
      for k = 0 to Array.length ins - 1 do
        let j = src ins.(k) in
        if j >= 0 then begin
          off.(j + 1) <- off.(j + 1) - 1;
          adj.(off.(j + 1)) <- i
        end
      done
    end
  done;
  let order = Array.make n 0 in
  let tail = ref 0 in
  (* Sequential cells go last; their combinational input cone is already
     ordered, and nothing combinational depends on ordering them early. *)
  for i = 0 to n - 1 do
    if Bytes.unsafe_get seq i = '\000' && Bytes.get_uint8 indeg i = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    for k = off.(i + 1) to off.(i + 2) - 1 do
      let j = adj.(k) in
      let dj = Bytes.get_uint8 indeg j - 1 in
      Bytes.set_uint8 indeg j dj;
      if dj = 0 then begin
        order.(!tail) <- j;
        incr tail
      end
    done
  done;
  if !tail <> !n_comb then None
  else begin
    for i = 0 to n - 1 do
      if Bytes.unsafe_get seq i = '\001' then begin
        order.(!tail) <- i;
        incr tail
      end
    done;
    Some order
  end

let order t = memo t.order_memo sort t

let topo_order t =
  match order t with
  | Some o -> o
  | None -> failwith "Netlist.topo_order: combinational cycle"

let has_comb_cycle t = Option.is_none (order t)
let order_memoized t = Option.is_some (Atomic.get t.order_memo)

let comb_view t =
  let v = create (t.name ^ "_scan") in
  v.n_nets <- t.n_nets;
  v.inputs <- t.inputs;
  v.outputs <- t.outputs;
  v.keys <- t.keys;
  let k = ref 0 in
  Vec.iter
    (fun c ->
      match c.Cell.kind with
      | Cell.Dff ->
          let i = !k in
          incr k;
          (* The flop's q-net becomes a scan input; its d-net a scan
             output. The q-net already exists: declare it as an input. *)
          v.inputs <- (Printf.sprintf "scan_in_%d" i, c.Cell.out) :: v.inputs;
          v.outputs <-
            (Printf.sprintf "scan_out_%d" i, c.Cell.ins.(0)) :: v.outputs
      | Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor
      | Cell.Not | Cell.Buf | Cell.Mux2 | Cell.Mux4 | Cell.Lut _
      | Cell.Const _ | Cell.Config_latch ->
          Vec.push v.cells c)
    t.cells;
  v

let stats t =
  let tbl = Hashtbl.create 16 in
  Vec.iter
    (fun c ->
      (* Collapse LUT truth tables so the histogram groups by arity. *)
      let key =
        match c.Cell.kind with
        | Cell.Lut tt -> Printf.sprintf "lut%d" (Truthtab.arity tt)
        | k -> Cell.kind_name k
      in
      Hashtbl.replace tbl key (1 + try Hashtbl.find tbl key with Not_found -> 0))
    t.cells;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let count_kind t p =
  Vec.fold (fun acc c -> if p c.Cell.kind then acc + 1 else acc) 0 t.cells

let pp ppf t =
  Format.fprintf ppf "@[<v>module %s: %d nets, %d cells@," t.name t.n_nets
    (num_cells t);
  List.iter (fun (nm, n) -> Format.fprintf ppf "  input %s = n%d@," nm n) (inputs t);
  List.iter (fun (nm, n) -> Format.fprintf ppf "  key %s = n%d@," nm n) (keys t);
  List.iter (fun (nm, n) -> Format.fprintf ppf "  output %s = n%d@," nm n) (outputs t);
  Vec.iter (fun c -> Format.fprintf ppf "  %a@," Cell.pp c) t.cells;
  Format.fprintf ppf "@]"
