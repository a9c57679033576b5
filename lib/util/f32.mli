(** Emulation of IEEE-754 binary32 (float32) arithmetic on top of OCaml's
    native 64-bit floats.

    Every operation rounds its double-precision result to the nearest
    representable float32 (round-to-nearest-even, via the [Int32] bit
    conversion), which reproduces the results a 32-bit GPU ALU produces for a
    single operation.  This is the arithmetic the paper's CUDA kernels use for
    floating-point signatures. *)

type t = float
(** A float32 value, stored in a float that is always exactly representable
    in binary32. *)

val round : float -> t
(** [round x] is the nearest binary32 value to [x]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t

val of_float : float -> t
(** Alias of {!round}. *)

type cell = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A one-element binary32 store.  Writing a float into it rounds to the
    nearest binary32 and reading it back widens exactly, so a store and a
    load compute {!round}, bitwise for every float (NaN payloads
    included), with the two conversion instructions the compiler emits
    inline, where {!round} calls two C externals.  The unboxed kernels
    write that store and load out at each rounding step (the type is
    exposed so the access compiles to those instructions); each kernel
    call takes its own cell, since two domains sharing one would race on
    it. *)

val cell : unit -> cell
(** A fresh cell. *)

val smallest_normal : float
(** [2{^ -126}], the smallest positive normal float32. *)

val is_denormal : t -> bool
(** [is_denormal x] is true when [x] is nonzero and its magnitude is below
    {!smallest_normal}.  (A value that is denormal in binary32 terms.) *)

val flush_denormal : t -> t
(** Flush-to-zero: denormal inputs become (sign-preserving) zero.  Mirrors
    the paper's FTZ optimization used to make filter correction factors decay
    to exact zeros. *)
