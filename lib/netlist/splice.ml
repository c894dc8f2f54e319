module Diag = Shell_util.Diag

(* One build. The spliced netlist used to be built in full, validated,
   and rebuilt by [Rewrite.sweep_buffers]. Here the first netlist exists
   only as its net numbering: [pmap] and [rmap] take parent and
   replacement nets to its ids, assigned in the order its build would
   have assigned them. Validity is checked by counting drivers and
   reads on those ids, buffer chains are resolved on them, and the
   final netlist is built once, numbered as [sweep_buffers] numbers
   it. Only an invalid splice builds the first netlist, to report its
   first defect exactly as [Netlist.validate] words it. *)
let replace_cells parent ~remove ~replacement ~input_binding ~output_binding =
  let name = Netlist.name parent in
  let p_inputs = Netlist.inputs parent and p_keys = Netlist.keys parent in
  let p_outputs = Netlist.outputs parent in
  let r_inputs = Netlist.inputs replacement in
  let r_keys = Netlist.keys replacement in
  let r_outputs = Netlist.outputs replacement in
  let np = Netlist.num_cells parent and nr = Netlist.num_cells replacement in
  let cap =
    Netlist.num_nets parent + Netlist.num_nets replacement
    + List.length p_inputs + List.length p_keys + List.length r_keys
  in
  let nnets = ref 0 in
  let fresh () =
    let id = !nnets in
    incr nnets;
    id
  in
  let pmap = Array.make (max (Netlist.num_nets parent) 1) (-1) in
  let rmap = Array.make (max (Netlist.num_nets replacement) 1) (-1) in
  let port map (nm, net) =
    let id = fresh () in
    map.(net) <- id;
    (nm, id)
  in
  let inputs = List.map (port pmap) p_inputs in
  let keys = List.map (port pmap) p_keys in
  (* lift the replacement's keys *)
  let keys = keys @ List.map (port rmap) r_keys in
  let map_parent net =
    if pmap.(net) = -1 then pmap.(net) <- fresh ();
    pmap.(net)
  in
  let map_repl net =
    if rmap.(net) = -1 then rmap.(net) <- fresh ();
    rmap.(net)
  in
  (* bind replacement inputs onto parent nets: identify the nets *)
  List.iter
    (fun (port, parent_net) ->
      match List.assoc_opt port r_inputs with
      | None -> invalid_arg ("Splice: replacement has no input " ^ port)
      | Some rnet ->
          if rmap.(rnet) <> -1 then invalid_arg ("Splice: input bound twice: " ^ port);
          rmap.(rnet) <- map_parent parent_net)
    input_binding;
  (* every replacement input must be bound *)
  List.iter
    (fun (nm, rnet) ->
      if rmap.(rnet) = -1 then
        invalid_arg ("Splice: replacement input unbound: " ^ nm))
    r_inputs;
  (* Number the nets of the surviving parent cells, the replacement
     cells and one buffer per output binding, each cell's output before
     its inputs (the order the two-step build evaluated them in),
     counting drivers and reads as they go. *)
  let drivers = Array.make (max cap 1) 0 in
  let read = Bytes.make (max cap 1) '\000' in
  List.iter (fun (_, id) -> drivers.(id) <- drivers.(id) + 1) inputs;
  List.iter (fun (_, id) -> drivers.(id) <- drivers.(id) + 1) keys;
  let number map (c : Cell.t) =
    let o = map c.Cell.out in
    drivers.(o) <- drivers.(o) + 1;
    Array.iter (fun net -> Bytes.set read (map net) '\001') c.Cell.ins
  in
  let keep = Bytes.make (max np 1) '\000' in
  for i = 0 to np - 1 do
    if not (remove i) then begin
      Bytes.set keep i '\001';
      number map_parent (Netlist.cell parent i)
    end
  done;
  for i = 0 to nr - 1 do
    number map_repl (Netlist.cell replacement i)
  done;
  (* replacement outputs drive the orphaned parent nets via buffers *)
  let bufs =
    List.map
      (fun (port, parent_net) ->
        match List.assoc_opt port r_outputs with
        | None -> invalid_arg ("Splice: replacement has no output " ^ port)
        | Some rnet ->
            let o = map_parent parent_net in
            let src = map_repl rnet in
            drivers.(o) <- drivers.(o) + 1;
            Bytes.set read src '\001';
            (src, o))
      output_binding
  in
  let outputs = List.map (fun (nm, net) -> (nm, map_parent net)) p_outputs in
  let n = !nnets in
  let kept i = Bytes.get keep i = '\001' in
  let each_cell f =
    for i = 0 to np - 1 do
      if kept i then f pmap (Netlist.cell parent i)
    done;
    for i = 0 to nr - 1 do
      f rmap (Netlist.cell replacement i)
    done
  in
  let valid =
    let unique ports =
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun (nm, _) ->
          (not (Hashtbl.mem seen nm))
          && begin
               Hashtbl.add seen nm ();
               true
             end)
        ports
    in
    let ok = ref (unique inputs && unique keys && unique outputs) in
    for id = 0 to n - 1 do
      let d = drivers.(id) in
      if d > 1 || (d = 0 && Bytes.get read id = '\001') then ok := false
    done;
    List.iter (fun (_, id) -> if drivers.(id) = 0 then ok := false) outputs;
    !ok
  in
  if not valid then begin
    let out = Netlist.create name in
    List.iter (fun (nm, _) -> ignore (Netlist.add_input out nm)) inputs;
    List.iter (fun (nm, _) -> ignore (Netlist.add_key out nm)) keys;
    while Netlist.num_nets out < n do
      ignore (Netlist.new_net out)
    done;
    each_cell (fun map c ->
        Netlist.add_cell out
          (Cell.make ~origin:c.Cell.origin c.Cell.kind
             (Array.map (fun net -> map.(net)) c.Cell.ins)
             map.(c.Cell.out)));
    List.iter
      (fun (src, o) ->
        Netlist.add_cell out (Cell.make ~origin:"splice" Cell.Buf [| src |] o))
      bufs;
    List.iter (fun (nm, id) -> Netlist.add_output out nm id) outputs;
    match Netlist.validate out with
    | Ok () -> assert false
    | Error d ->
        raise (Diag.Error { d with Diag.context = "Splice" :: d.Diag.context })
  end;
  (* every buffer goes: its readers read its source instead *)
  let subst = Array.make (max n 1) (-1) in
  each_cell (fun map c ->
      match c.Cell.kind with
      | Cell.Buf -> subst.(map.(c.Cell.out)) <- map.(c.Cell.ins.(0))
      | _ -> ());
  List.iter (fun (src, o) -> subst.(o) <- src) bufs;
  let rec resolve id seen =
    match subst.(id) with
    | -1 -> id
    | id' when id' <> id && seen < n -> resolve id' (seen + 1)
    | _ -> id
  in
  let out = Netlist.create name in
  let mapping = Array.make (max n 1) (-1) in
  List.iter
    (fun (nm, id) -> mapping.(resolve id 0) <- Netlist.add_input out nm)
    inputs;
  List.iter
    (fun (nm, id) -> mapping.(resolve id 0) <- Netlist.add_key out nm)
    keys;
  let map_net id =
    let id = resolve id 0 in
    if mapping.(id) = -1 then mapping.(id) <- Netlist.new_net out;
    mapping.(id)
  in
  each_cell (fun map c ->
      match c.Cell.kind with
      | Cell.Buf -> ()
      | _ ->
          let o = map_net map.(c.Cell.out) in
          Netlist.add_cell out
            (Cell.make ~origin:c.Cell.origin c.Cell.kind
               (Array.map (fun net -> map_net map.(net)) c.Cell.ins)
               o));
  List.iter (fun (nm, id) -> Netlist.add_output out nm (map_net id)) outputs;
  out
