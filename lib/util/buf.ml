type t = float array

let create n : t = Array.make n 0.0
let init n f : t = Array.init n f
let length (b : t) = Array.length b
let set (b : t) i v = b.(i) <- v
let uget (b : t) i = Array.unsafe_get b i
let blit ~(src : t) ~(dst : t) = Array.blit src 0 dst 0 (Array.length src)
