module Truthtab = Shell_util.Truthtab

type kind =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Mux2
  | Mux4
  | Lut of Truthtab.t
  | Const of bool
  | Dff
  | Config_latch

type t = { kind : kind; ins : int array; out : int; origin : string }

let arity = function
  | And | Or | Nand | Nor | Xor | Xnor -> 2
  | Not | Buf -> 1
  | Mux2 -> 3
  | Mux4 -> 6
  | Lut tt -> Truthtab.arity tt
  | Const _ -> 0
  | Dff | Config_latch -> 1

let is_sequential = function
  | Dff | Config_latch -> true
  | And | Or | Nand | Nor | Xor | Xnor | Not | Buf | Mux2 | Mux4 | Lut _
  | Const _ -> false

(* [pat] occurs in [s] at [i], from its [k]th character on *)
let rec occurs_at s pat i k =
  k = String.length pat || (s.[i + k] = pat.[k] && occurs_at s pat i (k + 1))

let rec occurs_from s pat i =
  i + String.length pat <= String.length s
  && (occurs_at s pat i 0 || occurs_from s pat (i + 1))

let rec origin_matches pats c =
  match pats with
  | [] -> false
  | pat :: rest ->
      (pat <> "" && occurs_from c.origin pat 0) || origin_matches rest c

let make ?(origin = "") kind ins out =
  if Array.length ins <> arity kind then
    invalid_arg
      (Printf.sprintf "Cell.make: %d inputs where %d expected"
         (Array.length ins) (arity kind));
  { kind; ins; out; origin }

let kind_name = function
  | And -> "and2"
  | Or -> "or2"
  | Nand -> "nand2"
  | Nor -> "nor2"
  | Xor -> "xor2"
  | Xnor -> "xnor2"
  | Not -> "not"
  | Buf -> "buf"
  | Mux2 -> "mux2"
  | Mux4 -> "mux4"
  | Lut tt -> Printf.sprintf "lut%d:%Lx" (Truthtab.arity tt) (Truthtab.bits tt)
  | Const b -> if b then "const1" else "const0"
  | Dff -> "dff"
  | Config_latch -> "cfg_latch"

let eval kind ins =
  match kind with
  | And -> ins.(0) && ins.(1)
  | Or -> ins.(0) || ins.(1)
  | Nand -> not (ins.(0) && ins.(1))
  | Nor -> not (ins.(0) || ins.(1))
  | Xor -> ins.(0) <> ins.(1)
  | Xnor -> ins.(0) = ins.(1)
  | Not -> not ins.(0)
  | Buf -> ins.(0)
  | Mux2 -> if ins.(0) then ins.(2) else ins.(1)
  | Mux4 ->
      let sel = (if ins.(0) then 1 else 0) lor (if ins.(1) then 2 else 0) in
      ins.(2 + sel)
  | Lut tt -> Truthtab.eval tt ins
  | Const b -> b
  | Dff | Config_latch -> invalid_arg "Cell.eval: sequential cell"

(* Allocation-free variant: read operand values straight out of the
   net store instead of materializing an input array per evaluation. *)
let eval_in kind (nets : bool array) (ins : int array) =
  match kind with
  | And -> nets.(ins.(0)) && nets.(ins.(1))
  | Or -> nets.(ins.(0)) || nets.(ins.(1))
  | Nand -> not (nets.(ins.(0)) && nets.(ins.(1)))
  | Nor -> not (nets.(ins.(0)) || nets.(ins.(1)))
  | Xor -> nets.(ins.(0)) <> nets.(ins.(1))
  | Xnor -> nets.(ins.(0)) = nets.(ins.(1))
  | Not -> not nets.(ins.(0))
  | Buf -> nets.(ins.(0))
  | Mux2 -> if nets.(ins.(0)) then nets.(ins.(2)) else nets.(ins.(1))
  | Mux4 ->
      let sel =
        (if nets.(ins.(0)) then 1 else 0) lor (if nets.(ins.(1)) then 2 else 0)
      in
      nets.(ins.(2 + sel))
  | Lut tt ->
      let row = ref 0 in
      for i = 0 to Array.length ins - 1 do
        if nets.(ins.(i)) then row := !row lor (1 lsl i)
      done;
      Truthtab.eval_row tt !row
  | Const b -> b
  | Dff | Config_latch -> invalid_arg "Cell.eval: sequential cell"

(* Word-level LUT evaluation by Shannon expansion over the top
   variable: eval(tt, x) = (s & eval(hi)) | (~s & eval(lo)) with lo/hi
   the two halves of the table, 2^arity - 1 word ops in total. The
   table bits are carried as a native int to keep Int64 values from
   boxing in the recursion; an arity-6 table (64 rows) is split once at
   the top level into two 32-row native halves. *)
let rec lut_word_go bits arity (nets : int array) (ins : int array) =
  if arity = 0 then -(bits land 1) (* broadcast row bit: 0 or all-ones *)
  else
    let a = arity - 1 in
    let lo = lut_word_go bits a nets ins in
    let hi = lut_word_go (bits lsr (1 lsl a)) a nets ins in
    let s = nets.(ins.(a)) in
    s land hi lor (lnot s land lo)

let lut_word tt (nets : int array) (ins : int array) =
  let arity = Truthtab.arity tt in
  let bits = Truthtab.bits tt in
  if arity < 6 then lut_word_go (Int64.to_int bits) arity nets ins
  else
    let lo = lut_word_go (Int64.to_int (Int64.logand bits 0xFFFFFFFFL)) 5 nets ins in
    let hi =
      lut_word_go (Int64.to_int (Int64.shift_right_logical bits 32)) 5 nets ins
    in
    let s = nets.(ins.(5)) in
    s land hi lor (lnot s land lo)

(* Word-level cell function: each net value carries one test vector per
   bit. Lanes beyond the caller's active count may hold junk (lnot sets
   them); consumers mask at read-out boundaries. *)
let eval_word_in kind (nets : int array) (ins : int array) =
  match kind with
  | And -> nets.(ins.(0)) land nets.(ins.(1))
  | Or -> nets.(ins.(0)) lor nets.(ins.(1))
  | Nand -> lnot (nets.(ins.(0)) land nets.(ins.(1)))
  | Nor -> lnot (nets.(ins.(0)) lor nets.(ins.(1)))
  | Xor -> nets.(ins.(0)) lxor nets.(ins.(1))
  | Xnor -> lnot (nets.(ins.(0)) lxor nets.(ins.(1)))
  | Not -> lnot nets.(ins.(0))
  | Buf -> nets.(ins.(0))
  | Mux2 ->
      let s = nets.(ins.(0)) in
      lnot s land nets.(ins.(1)) lor (s land nets.(ins.(2)))
  | Mux4 ->
      let s0 = nets.(ins.(0)) and s1 = nets.(ins.(1)) in
      let lo = lnot s0 land nets.(ins.(2)) lor (s0 land nets.(ins.(3))) in
      let hi = lnot s0 land nets.(ins.(4)) lor (s0 land nets.(ins.(5))) in
      lnot s1 land lo lor (s1 land hi)
  | Lut tt -> lut_word tt nets ins
  | Const b -> if b then -1 else 0
  | Dff | Config_latch -> invalid_arg "Cell.eval_word_in: sequential cell"

let pp ppf t =
  Format.fprintf ppf "%s(%s) -> n%d" (kind_name t.kind)
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "n%d") t.ins)))
    t.out
