module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell

(* Forward key-influence taint: per net, the bitset of key bits that
   can still functionally reach it. The lattice is (2^K, union) per
   net; propagation is monotone, so sweeping to the least fixpoint
   terminates (and handles sequential feedback and cycles), and
   skipping a cell whose inputs did not grow leaves that fixpoint
   unchanged.

   Refinement over the plain structural cone comes from the constant
   and ODC facts: a proven-constant net carries no influence (its
   taint stays empty), and a read the masking rules prove can never
   steer the cell contributes nothing to the output's set. *)

let bpw = Sys.int_size

type t = {
  nkeys : int;
  w : int;  (** words per net *)
  words : int array;  (** net-major bitset matrix, [n * w] *)
}

let bit_word b = b / bpw
let bit_mask b = 1 lsl (b mod bpw)

let tainted t ~net ~bit =
  t.nkeys > 0
  && net >= 0
  && (net + 1) * t.w <= Array.length t.words
  && t.words.((net * t.w) + bit_word bit) land bit_mask bit <> 0

let is_empty t net =
  if t.w = 0 || net < 0 || (net + 1) * t.w > Array.length t.words then true
  else begin
    let empty = ref true in
    for j = net * t.w to ((net + 1) * t.w) - 1 do
      if t.words.(j) <> 0 then empty := false
    done;
    !empty
  end

let net_taint t net =
  let bits = ref [] in
  for b = t.nkeys - 1 downto 0 do
    if tainted t ~net ~bit:b then bits := b :: !bits
  done;
  !bits

let count t net = List.length (net_taint t net)

(* Grow the net-major matrix [words] ([w] words per net, seeds already
   set, each seeded net marked 1 in [grew]) to the least fixpoint. *)
let propagate ~values ~masked nl ~w words grew =
  (* The clock ticks once per cell visit. [grew.(net)]: the tick at
     which the net's set last grew (0: never, so still empty; 1: a key
     seed); [seen.(ci)]: the tick of cell [ci]'s last visit. The output
     of a visited cell already holds the union of its inputs as they
     were then, so a visit ORs in only the unmasked inputs that grew
     since, and a cell with none is skipped. The sweeps, and the
     fixpoint they reach, are the plain sweeps' own; but the first reads
     only the key fanout cone and later ones only the reads behind a
     change. *)
  let clock = ref 1 in
  let cells = N.cells nl in
  let seen = Array.make (Array.length cells) 0 in
  let visit ci =
    let c = cells.(ci) in
    let out = c.Cell.out and ins = c.Cell.ins in
    let m = masked.(ci) and since = seen.(ci) in
    let ticked = ref false and changed = ref false in
    for i = 0 to Array.length ins - 1 do
      let net = ins.(i) in
      if m land (1 lsl i) = 0 && grew.(net) > since then begin
        if not !ticked then begin
          incr clock;
          ticked := true
        end;
        for j = 0 to w - 1 do
          let s = words.((net * w) + j) in
          let d = words.((out * w) + j) in
          if s lor d <> d then begin
            words.((out * w) + j) <- s lor d;
            grew.(out) <- !clock;
            changed := true
          end
        done
      end
    done;
    if !ticked then seen.(ci) <- !clock;
    !changed
  in
  (* the order [Dataflow.const_values] sweeps in *)
  let order =
    if N.has_comb_cycle nl then Array.init (Array.length cells) Fun.id
    else N.topo_order nl
  in
  let sweep () =
    let changed = ref false in
    Array.iter
      (fun ci ->
        (* a proven-constant output carries no key influence *)
        match values.(cells.(ci).Cell.out) with
        | Dataflow.Unknown -> if visit ci then changed := true
        | Dataflow.Zero | Dataflow.One -> ())
      order;
    !changed
  in
  (* each sweep that reports a change set at least one new bit, so the
     loop runs at most n * nkeys sweeps (far fewer in practice:
     topological order converges combinational logic in one) *)
  while sweep () do
    ()
  done

let facts ?values ?masked nl =
  let values =
    match values with Some v -> v | None -> Dataflow.const_values nl
  in
  let masked =
    match masked with Some m -> m | None -> Odc.masks values nl
  in
  (values, masked)

let analyze ?values ?masked nl =
  let n = N.num_nets nl in
  let keys = N.keys nl in
  let nkeys = List.length keys in
  let w = (nkeys + bpw - 1) / bpw in
  let words = Array.make (max (n * w) 1) 0 in
  let t = { nkeys; w; words } in
  if nkeys = 0 || n = 0 then t
  else begin
    let values, masked = facts ?values ?masked nl in
    let grew = Array.make n 0 in
    List.iteri
      (fun b (_, net) ->
        if net >= 0 && net < n then begin
          words.((net * w) + bit_word b) <-
            words.((net * w) + bit_word b) lor bit_mask b;
          grew.(net) <- 1
        end)
      keys;
    propagate ~values ~masked nl ~w words grew;
    t
  end

(* A union is empty exactly when every operand is, so one bit seeded at
   every key net follows emptiness through the same sweeps. *)
let reach ?values ?masked nl =
  let n = N.num_nets nl in
  let words = Array.make n 0 in
  if n > 0 && N.keys nl <> [] then begin
    let values, masked = facts ?values ?masked nl in
    let grew = Array.make n 0 in
    List.iter
      (fun (_, net) ->
        if net >= 0 && net < n then begin
          words.(net) <- 1;
          grew.(net) <- 1
        end)
      (N.keys nl);
    propagate ~values ~masked nl ~w:1 words grew
  end;
  Array.map (fun x -> x <> 0) words
