module N = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell

(* SCOPE-style unsupervised constant-propagation scoring.

   For each key bit, re-run the 3-valued constant propagation twice —
   once with the bit pinned to 0, once to 1 — and score how much of
   the netlist each pinning collapses (nets newly proven constant, i.e.
   cells folded away). A locking gate wired so that one key value
   degenerates it (AND with 0, OR with 1, a mux arm that short-circuits)
   collapses asymmetrically; the MORE collapsing value is the likelier
   WRONG one, because correct keys leave the original function — not a
   degenerate residue — behind. XOR-style gates collapse nothing either
   way and stay undecidable, which is exactly SCOPE's blind spot.

   Pinning only adds facts, and Kleene evaluation is monotone, so the
   pinned fixpoint is a superset of the unpinned one. That makes the
   per-bit re-runs incremental: seed the pinned fact, then propagate a
   worklist through the fanout until nothing new is proven — cost is
   the size of the affected cone, not the netlist. *)

type bit_score = {
  name : string;
  net : int;
  score0 : int;  (** nets newly proven constant with the bit pinned 0 *)
  score1 : int;  (** same, pinned 1 *)
}

let divergence b = abs (b.score0 - b.score1)

let guess b =
  if b.score0 > b.score1 then Some true
  else if b.score1 > b.score0 then Some false
  else None

(* Count the nets that move Unknown -> known when [net] is pinned to
   [b] on top of the base facts, restoring [base] before returning.
   The unique-least-fixpoint property of the monotone propagation makes
   the count independent of the worklist processing order. *)
let pinned_moves nl ~config_through base (net, b) =
  let n = Array.length base in
  if net < 0 || net >= n || base.(net) <> Dataflow.Unknown then 0
  else begin
    let moved = ref [] in
    let q = Queue.create () in
    base.(net) <- (if b then Dataflow.One else Dataflow.Zero);
    moved := net :: !moved;
    List.iter (fun ci -> Queue.add ci q) (N.fanout nl net);
    while not (Queue.is_empty q) do
      let ci = Queue.pop q in
      let c = N.cell nl ci in
      let out = c.Cell.out in
      if base.(out) = Dataflow.Unknown then
        match Dataflow.eval_cell ~config_through base c with
        | Dataflow.Unknown -> ()
        | v ->
            base.(out) <- v;
            moved := out :: !moved;
            List.iter (fun cj -> Queue.add cj q) (N.fanout nl out)
    done;
    let count = List.length !moved - 1 in
    List.iter (fun m -> base.(m) <- Dataflow.Unknown) !moved;
    count
  end

let scores ?(config_through = true) nl =
  let base = Dataflow.const_values ~config_through nl in
  List.map
    (fun (name, net) ->
      {
        name;
        net;
        score0 = pinned_moves nl ~config_through base (net, false);
        score1 = pinned_moves nl ~config_through base (net, true);
      })
    (N.keys nl)
