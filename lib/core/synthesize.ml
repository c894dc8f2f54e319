module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Style = Shell_fabric.Style
module Opt = Shell_synth.Opt
module Lut_map = Shell_synth.Lut_map
module Mux_chain = Shell_synth.Mux_chain

type mapped = {
  netlist : Shell_netlist.Netlist.t;
  luts : int;
  lut_levels : int;
  chain_mux4 : int;
  chain_mux2 : int;
  chain_stages : int;
  ffs : int;
}

let count nl p = Netlist.count_kind nl p

let run ~style ~route_origins sub =
  let p = Style.params style in
  let simplified = Opt.simplify sub in
  let mapped_nl, lut_stats, chain_stages =
    if p.Style.supports_chain && route_origins <> [] then begin
      let is_route = Cell.origin_matches route_origins in
      let packed, chain_stats =
        Mux_chain.map ~should_pack:is_route simplified
      in
      (* keep chain cells out of the LUT covering: Mux4 is structural
         (arity 6 > 4); route-origin Mux2 via the boundary predicate *)
      let boundary c = c.Cell.kind = Cell.Mux2 && is_route c in
      let nl, stats = Lut_map.map ~k:p.Style.lut_k ~boundary packed in
      (nl, stats, chain_stats.Mux_chain.chain_length)
    end
    else
      let nl, stats = Lut_map.map ~k:p.Style.lut_k simplified in
      (nl, stats, 0)
  in
  {
    netlist = mapped_nl;
    luts = lut_stats.Lut_map.luts;
    lut_levels = lut_stats.Lut_map.levels;
    chain_mux4 = count mapped_nl (function Cell.Mux4 -> true | _ -> false);
    chain_mux2 = count mapped_nl (function Cell.Mux2 -> true | _ -> false);
    chain_stages;
    ffs = count mapped_nl (function Cell.Dff -> true | _ -> false);
  }
