type t =
  | Var of string
  | Lit of { width : int; value : int64 }
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Add of t * t
  | Sub of t * t
  | Eq of t * t
  | Lt of t * t
  | Mux of t * t * t
  | Concat of t * t
  | Slice of t * int * int
  | Reduce_and of t
  | Reduce_or of t
  | Reduce_xor of t

exception Width_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Width_error s)) fmt

let rec width_exn ~env e =
  let same a b what =
    let wa = width_exn ~env a and wb = width_exn ~env b in
    if wa <> wb then fail "%s: operand widths %d vs %d" what wa wb;
    wa
  in
  match e with
  | Var nm -> env nm
  | Lit { width; _ } ->
      if width <= 0 then fail "literal width must be positive";
      width
  | Not a -> width_exn ~env a
  | And (a, b) -> same a b "and"
  | Or (a, b) -> same a b "or"
  | Xor (a, b) -> same a b "xor"
  | Add (a, b) -> same a b "add"
  | Sub (a, b) -> same a b "sub"
  | Eq (a, b) ->
      ignore (same a b "eq");
      1
  | Lt (a, b) ->
      ignore (same a b "lt");
      1
  | Mux (c, a, b) ->
      if width_exn ~env c <> 1 then fail "mux condition must be 1 bit";
      same a b "mux"
  | Concat (hi, lo) -> width_exn ~env hi + width_exn ~env lo
  | Slice (a, hi, lo) ->
      let w = width_exn ~env a in
      if lo < 0 || hi < lo || hi >= w then
        fail "slice [%d:%d] out of range for width %d" hi lo w;
      hi - lo + 1
  | Reduce_and a | Reduce_or a | Reduce_xor a ->
      ignore (width_exn ~env a);
      1

let vars e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Var nm ->
        if not (Hashtbl.mem seen nm) then begin
          Hashtbl.add seen nm ();
          acc := nm :: !acc
        end
    | Lit _ -> ()
    | Not a | Slice (a, _, _) | Reduce_and a | Reduce_or a | Reduce_xor a ->
        go a
    | And (a, b) | Or (a, b) | Xor (a, b) | Add (a, b) | Sub (a, b)
    | Eq (a, b) | Lt (a, b) | Concat (a, b) ->
        go a;
        go b
    | Mux (c, a, b) ->
        go c;
        go a;
        go b
  in
  go e;
  List.rev !acc

let var nm = Var nm
let lit ~width value = Lit { width; value = Int64.of_int value }
let bit0 = lit ~width:1 0
let ( &: ) a b = And (a, b)
let ( |: ) a b = Or (a, b)
let ( ^: ) a b = Xor (a, b)
let ( ~: ) a = Not a
let ( +: ) a b = Add (a, b)
let ( -: ) a b = Sub (a, b)
let ( ==: ) a b = Eq (a, b)
let ( <: ) a b = Lt (a, b)
let mux c a b = Mux (c, a, b)

let concat = function
  | [] -> invalid_arg "Expr.concat: empty"
  | hd :: tl -> List.fold_left (fun acc e -> Concat (acc, e)) hd tl

let slice e hi lo = Slice (e, hi, lo)
let bit e i = Slice (e, i, i)

let rec pp ppf = function
  | Var nm -> Format.pp_print_string ppf nm
  | Lit { width; value } -> Format.fprintf ppf "%d'd%Ld" width value
  | Not a -> Format.fprintf ppf "~%a" pp a
  | And (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
  | Xor (a, b) -> Format.fprintf ppf "(%a ^ %a)" pp a pp b
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Eq (a, b) -> Format.fprintf ppf "(%a == %a)" pp a pp b
  | Lt (a, b) -> Format.fprintf ppf "(%a < %a)" pp a pp b
  | Mux (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" pp c pp a pp b
  | Concat (a, b) -> Format.fprintf ppf "{%a, %a}" pp a pp b
  | Slice (a, hi, lo) -> Format.fprintf ppf "%a[%d:%d]" pp a hi lo
  | Reduce_and a -> Format.fprintf ppf "&%a" pp a
  | Reduce_or a -> Format.fprintf ppf "|%a" pp a
  | Reduce_xor a -> Format.fprintf ppf "^%a" pp a
