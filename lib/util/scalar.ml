(** The numeric domains a recurrence can be computed over.

    The paper evaluates 32-bit integer and 32-bit floating-point sequences;
    we additionally provide native [int] and binary64 instances, which are
    convenient for exact testing and for the multicore CPU backend.  All
    algorithm code in this repository is written once against {!S} and
    instantiated per domain. *)

type kind =
  | Integer  (** exact arithmetic, validated with equality *)
  | Floating (** rounded arithmetic, validated with a tolerance *)

type rounding =
  | Exact     (** native binary64 arithmetic, no extra rounding *)
  | Round_f32 (** round every operation to binary32 (the {!F32} emulation) *)

(* Representation witness: matching on [S.rep] refines [S.t] statically,
   so kernels can be monomorphized onto the flat [int array] or
   [float array] an [S.t array] already is, without any copy or
   [Obj.magic]. *)
type _ rep =
  | Int_rep : int rep
  | Float_rep : rounding -> float rep
  | Other_rep : 'a rep

module type S = sig
  type t

  val kind : kind

  val rep : t rep
  (** Runtime witness of the representation of [t], used to dispatch the
      CPU backends onto monomorphic unboxed kernels.  [Float_rep r] and
      [Int_rep] promise that [add]/[sub]/[mul]/[neg] are exactly the
      native operations (composed with the [r] rounding step for floats)
      — semirings with exotic operations must use [Other_rep]. *)

  val exact_f64_embedding : bool
  (** True when the scalar's [add]/[mul] agree with IEEE binary64 [+]/[×]
      up to rounding, so correction factors may be precomputed in double
      precision and converted (what the paper's offline precomputation
      does).  False for the non-numeric semirings in {!Semiring}, whose
      factors must be generated with the semiring's own operations. *)

  val bytes : int
  (** Storage size of one value on the modeled device (always 4 for the
      paper's data types; 8 for the binary64 instance). *)

  val ctype : string
  (** The C type name used by the CUDA code generator. *)

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val neg : t -> t
  val of_int : int -> t
  val of_float : float -> t
  val to_float : t -> float

  (* Exact for integer scalars (no float round-trip); truncation for
     floating scalars. *)
  val to_int : t -> int
  val equal : t -> t -> bool
  val is_zero : t -> bool
  val is_one : t -> bool

  val flush_denormal : t -> t
  (** Flush-to-zero for floating instances; the identity for integers. *)

  val approx_equal : tol:float -> t -> t -> bool
  (** Exact equality for integers; for floats, true when the absolute or
      relative discrepancy is below [tol] (the paper uses [1e-3]). *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module F32_arith = F32
(* Alias the float32-emulation compilation unit before the [F32] scalar
   instance below shadows its name. *)

(* Shared tolerance test for the floating instances. *)
let float_approx_equal ~tol a b =
  let d = Float.abs (a -. b) in
  d <= tol || d <= tol *. Float.max (Float.abs a) (Float.abs b)

module Int : S with type t = int = struct
  type t = int

  let kind = Integer
  let rep = Int_rep
  let exact_f64_embedding = true
  let bytes = 4
  let ctype = "int"
  let zero = 0
  let one = 1
  let add = ( + )
  let sub = ( - )
  let mul = ( * )
  let neg x = -x
  let of_int x = x
  let of_float = int_of_float
  let to_float = float_of_int
  let to_int x = x
  let equal = Stdlib.Int.equal
  let is_zero x = x = 0
  let is_one x = x = 1
  let flush_denormal x = x
  let approx_equal ~tol:_ a b = a = b
  let pp = Format.pp_print_int
  let to_string = string_of_int
end

module Int32s : S with type t = int32 = struct
  type t = int32

  let kind = Integer

  (* Int32 values are boxed; the monomorphic backends have no unboxed
     storage for them, so they stay on the generic kernels. *)
  let rep = Other_rep
  let exact_f64_embedding = true
  let bytes = 4
  let ctype = "int"
  let zero = 0l
  let one = 1l
  let add = Int32.add
  let sub = Int32.sub
  let mul = Int32.mul
  let neg = Int32.neg
  let of_int = Int32.of_int
  let of_float = Int32.of_float
  let to_float = Int32.to_float
  let to_int = Int32.to_int
  let equal = Int32.equal
  let is_zero x = Int32.equal x 0l
  let is_one x = Int32.equal x 1l
  let flush_denormal x = x
  let approx_equal ~tol:_ a b = Int32.equal a b
  let pp fmt x = Format.fprintf fmt "%ld" x
  let to_string = Int32.to_string
end

module F32 : S with type t = float = struct
  type t = float

  let kind = Floating
  let rep = Float_rep Round_f32
  let exact_f64_embedding = true
  let bytes = 4
  let ctype = "float"
  let zero = 0.0
  let one = 1.0
  let add = F32_arith.add
  let sub = F32_arith.sub
  let mul = F32_arith.mul
  let neg = F32_arith.neg
  let of_int x = F32_arith.round (float_of_int x)
  let of_float = F32_arith.round
  let to_float x = x
  let to_int = int_of_float
  let equal = Float.equal
  let is_zero x = x = 0.0
  let is_one x = x = 1.0
  let flush_denormal = F32_arith.flush_denormal
  let approx_equal = float_approx_equal
  let pp fmt x = Format.fprintf fmt "%g" x
  let to_string = string_of_float
end

module F64 : S with type t = float = struct
  type t = float

  let kind = Floating
  let rep = Float_rep Exact
  let exact_f64_embedding = true
  let bytes = 8
  let ctype = "double"
  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let neg x = -.x
  let of_int = float_of_int
  let of_float x = x
  let to_float x = x
  let to_int = int_of_float
  let equal = Float.equal
  let is_zero x = x = 0.0
  let is_one x = x = 1.0
  let flush_denormal x = if F32_arith.is_denormal x then 0.0 else x
  let approx_equal = float_approx_equal
  let pp fmt x = Format.fprintf fmt "%g" x
  let to_string = string_of_float
end
