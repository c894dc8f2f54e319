module Netlist = Shell_netlist.Netlist
module Cell = Shell_netlist.Cell
module Truthtab = Shell_util.Truthtab

(* Calibrated against Lut_map on the generator circuits: a 4-LUT
   absorbs roughly three 2-input gates of random logic; wide cells
   (mux4) and xor-heavy logic pack worse. *)
let luts_per_kind = function
  | Cell.Const _ -> 0.0
  | Cell.Buf -> 0.0
  | Cell.Not -> 0.1
  | Cell.And | Cell.Or | Cell.Nand | Cell.Nor -> 0.34
  | Cell.Xor | Cell.Xnor -> 0.5
  | Cell.Mux2 -> 0.6
  | Cell.Mux4 -> 1.8
  | Cell.Dff | Cell.Config_latch -> 0.0
  | Cell.Lut tt -> (
      match Truthtab.arity tt with
      | a when a <= 4 -> 1.0
      | a -> float_of_int (a - 3))

let estimate_cells nl indices =
  List.fold_left
    (fun acc i -> acc +. luts_per_kind (Netlist.cell nl i).Cell.kind)
    0.0 indices
