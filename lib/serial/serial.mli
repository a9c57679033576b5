(** The straightforward serial algorithm from the beginning of the paper's
    §2 — O(nk) work, O(n+k) space.  Every parallel implementation in this
    repository is validated against this module, mirroring the paper's
    methodology (§5): exact comparison for integers, 1e-3 discrepancy bound
    for floats. *)

module Make (S : Plr_util.Scalar.S) : sig
  val recurrence : feedback:S.t array -> S.t array -> S.t array
  (** Equation (3): [y(i) = t(i) + Σ_j b-j·y(i-j)] with [y(j<0) = 0].
      The input array is the intermediate sequence [t]. *)

  val recurrence_in_place : feedback:S.t array -> S.t array -> unit
  (** Same, overwriting the input. *)

  val fir : forward:S.t array -> S.t array -> S.t array
  (** Equation (2), the map stage: [t(i) = Σ_j a-j·x(i-j)] with
      [x(j<0) = 0]. *)

  val full : S.t Signature.t -> S.t array -> S.t array
  (** Equation (1): [fir] then [recurrence]. *)

  val full_into : S.t Signature.t -> src:Plr_util.Buf.t -> dst:Plr_util.Buf.t -> unit
  (** {!full} on unboxed {!Plr_util.Buf.t} float64 storage (float scalars
      only — raises [Invalid_argument] otherwise).  Writes the first
      [Buf.length src] elements of the caller-allocated [dst], which must
      not overlap [src]: a [dst] shorter than [src], or [src] itself,
      raises [Invalid_argument] ({!Plr_util.Buf.check_into}).  The
      operation and rounding sequence replicates {!full} exactly, so the
      result is bitwise identical.  The boxed {!full} remains the
      reference every backend is validated against. *)

  val validate : ?tol:float -> expected:S.t array -> S.t array -> (unit, string) result
  (** Element-wise comparison in the paper's style.  [tol] defaults to
      [1e-3] and only matters for floating scalars.  On failure the message
      reports the first mismatching index and both values. *)
end
