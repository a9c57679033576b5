(** The numeric domains a recurrence can be computed over.

    The paper evaluates 32-bit integer and 32-bit floating-point sequences;
    we additionally provide native [int] and binary64 instances, which are
    convenient for exact testing and for the multicore CPU backend.  All
    algorithm code in this repository is written once against {!S} and
    instantiated per domain.  Non-numeric semiring instances live in
    {!Semiring}. *)

type kind =
  | Integer   (** exact arithmetic, validated with equality *)
  | Floating  (** rounded arithmetic, validated with a tolerance *)

type rounding =
  | Exact     (** native binary64 arithmetic, no extra rounding *)
  | Round_f32 (** round every operation to binary32 (the {!F32} emulation) *)

type _ rep =
  | Int_rep : int rep
  | Float_rep : rounding -> float rep
  | Other_rep : 'a rep
      (** Representation witness.  Matching on [S.rep] refines [S.t]
          statically, so the CPU backends can monomorphize their kernels
          onto the flat [int array] or [float array] an [S.t array]
          already is, with no copy and no [Obj.magic].  [Int_rep]/[Float_rep] additionally promise
          that [add]/[sub]/[mul]/[neg] are exactly the native operations
          (composed with the given rounding step for floats); semirings
          with exotic operations must declare [Other_rep]. *)

module type S = sig
  type t

  val kind : kind

  val rep : t rep
  (** Witness of the representation of [t]; see {!type:rep}. *)

  val exact_f64_embedding : bool
  (** True when [add]/[mul] agree with IEEE binary64 [+]/[×] up to
      rounding, so correction factors may be precomputed in double
      precision and converted (what the paper's offline precomputation
      does).  False for the semirings, whose factors must be generated with
      their own operations. *)

  val bytes : int
  (** Storage size of one value on the modeled device (4 for the paper's
      data types; 8 for binary64). *)

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

  val to_int : t -> int
  (** Exact for integer scalars (no float round-trip); truncation for
      floating scalars. *)

  val equal : t -> t -> bool
  val is_zero : t -> bool
  val is_one : t -> bool

  val flush_denormal : t -> t
  (** Flush-to-zero for floating instances; the identity for integers. *)

  val approx_equal : tol:float -> t -> t -> bool
  (** Exact equality for integers; for floats, true when the absolute or
      relative discrepancy is below [tol] (the paper uses [1e-3], §5). *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Int : S with type t = int
(** Native int — wraps modulo 2⁶³, convenient for exact tests. *)

module Int32s : S with type t = int32
(** True 32-bit wrap-around semantics, matching GPU integer code. *)

module F32 : S with type t = float
(** Emulated IEEE binary32: every operation rounds to float32 (see
    {!F32}'s emulation in the [F32] compilation unit). *)

module F64 : S with type t = float
