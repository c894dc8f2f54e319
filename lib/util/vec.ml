type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make (max n 1) x; len = n }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i = check v i; v.data.(i)

let set v i x = check v i; v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data = Array.make cap' x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v x;
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

let to_list v = Array.to_list (to_array v)

let of_array a = { data = Array.copy a; len = Array.length a }

let of_list l = of_array (Array.of_list l)

let map f v = of_array (Array.map f (to_array v))

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0
