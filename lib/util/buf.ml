type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0.0;
  b

let length (b : t) = Bigarray.Array1.dim b
let get (b : t) i = Bigarray.Array1.get b i
let set (b : t) i v = Bigarray.Array1.set b i v
let uget (b : t) i = Bigarray.Array1.unsafe_get b i
let uset (b : t) i v = Bigarray.Array1.unsafe_set b i v
let fill (b : t) v = Bigarray.Array1.fill b v
let sub (b : t) ~pos ~len : t = Bigarray.Array1.sub b pos len
let blit ~(src : t) ~(dst : t) = Bigarray.Array1.blit src dst

let check_into what ~(src : t) ~(dst : t) =
  if length dst < length src then invalid_arg (what ^ ": dst too short");
  if src == dst then invalid_arg (what ^ ": dst is src")

let blit_range ~(src : t) ~src_pos ~(dst : t) ~dst_pos ~len =
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src src_pos len)
      (Bigarray.Array1.sub dst dst_pos len)

let of_array (a : float array) : t =
  let n = Array.length a in
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

let to_array (b : t) =
  let n = Bigarray.Array1.dim b in
  if n = 0 then [||]
  else begin
    let a = Array.make n 0.0 in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (Bigarray.Array1.unsafe_get b i)
    done;
    a
  end

let blit_from_array (a : float array) (b : t) =
  let n = Array.length a in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i (Array.unsafe_get a i)
  done

let blit_to_array (b : t) (a : float array) =
  let n = Array.length a in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Bigarray.Array1.unsafe_get b i)
  done

let init n f : t =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i (f i)
  done;
  b
