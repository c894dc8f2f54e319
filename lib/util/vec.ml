(* [shared]: [data] has been handed out by [contents] (or is held by a
   [copy] too), so it must never be written again. The next write
   copies it first: [push] grows into a fresh array, [set] copies the
   live elements. *)
type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  mutable shared : bool;
}

let create () = { data = [||]; len = 0; shared = false }

let make n x = { data = Array.make (max n 1) x; len = n; shared = false }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i = check v i; v.data.(i)

let set v i x =
  check v i;
  if v.shared then begin
    v.data <- Array.sub v.data 0 v.len;
    v.shared <- false
  end;
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data = Array.make cap' x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data;
  v.shared <- false

let push v x =
  if v.shared || v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do f v.data.(i) done

let iteri f v =
  for i = 0 to v.len - 1 do f i v.data.(i) done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do acc := f !acc v.data.(i) done;
  !acc

let to_array v = Array.sub v.data 0 v.len

(* Readers on several domains may race here. Each reads [data] once and
   returns an array of exactly [len] elements: either [data] itself or
   a trimmed copy, which at most one of them keeps as [data]. *)
let contents v =
  let d = v.data in
  let d =
    if Array.length d = v.len then d
    else begin
      let a = Array.sub d 0 v.len in
      v.data <- a;
      a
    end
  in
  if not v.shared then v.shared <- true;
  d

let copy v = { data = contents v; len = v.len; shared = true }

let to_list v = Array.to_list (to_array v)

let of_array a = { data = Array.copy a; len = Array.length a; shared = false }

let of_list l = of_array (Array.of_list l)

let map f v = of_array (Array.map f (to_array v))

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0
