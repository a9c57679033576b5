type t = float

let round (x : float) : t = Int32.float_of_bits (Int32.bits_of_float x)
let of_float = round

type cell = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

let cell () : cell = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1
let add a b = round (a +. b)
let sub a b = round (a -. b)
let mul a b = round (a *. b)
let div a b = round (a /. b)
let neg a = -.a
let smallest_normal = 0x1p-126
let is_denormal x = x <> 0.0 && Float.abs x < smallest_normal
let flush_denormal x = if is_denormal x then 0.0 else x
