(** The benchmark's float buffers: a flat OCaml [float array].

    Every CPU kernel reads and writes [S.t array] storage, which for a
    float scalar is this same flat array, so the benchmark's [Buf] calls
    reach those entries through the type equation.  Only the functions
    the benchmark calls are kept; nothing in the library uses this
    module.  It goes once the benchmark moves to [float array]. *)

type t = float array

val create : int -> t
(** [create n] is a zero-filled buffer of length [n]. *)

val init : int -> (int -> float) -> t
val length : t -> int

val set : t -> int -> float -> unit
(** Bounds-checked write. *)

val uget : t -> int -> float
(** Unchecked read — the caller guarantees [0 <= i < length]. *)

val blit : src:t -> dst:t -> unit
(** Whole-buffer copy; [dst] must be at least as long as [src]. *)
