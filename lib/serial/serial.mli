(** The straightforward serial algorithm from the beginning of the paper's
    §2 — O(nk) work, O(n+k) space — and the CPU kernel layer built on it.

    The boxed {!Make.full} is the oracle: every parallel implementation in
    this repository is validated against it, mirroring the paper's
    methodology (§5): exact comparison for integers, 1e-3 discrepancy
    bound for floats.

    {!Make.solve} is the one fused solve every CPU evaluator runs on flat
    [S.t array] storage: {!Make.full_into}, the multicore chunk-local
    solve, a stream piece and the guard's float reference.  It dispatches
    once on {!Plr_util.Scalar.S.rep} — a float scalar runs on OCaml's flat
    [float array], whose monomorphic reads and writes compile to direct
    unboxed loads and stores, a native int on its [int array], and every
    other scalar on the boxed loop {!Make.solve_boxed}.  The float and int
    kernels are specialized on the signature's order (floats 1–3, ints
    1–2) and keep the last k outputs in locals.  Every path performs
    {!Make.full}'s operation and rounding sequence, so its outputs are
    bitwise {!Make.full}'s. *)

val check_into : string -> src:'a array -> dst:'a array -> unit
(** [check_into what ~src ~dst] enforces the buffer contract of the
    [*_into] evaluators: [dst] holds at least [Array.length src] elements
    and, when [src] is not empty, is not [src] itself, since an evaluator
    writes an output before it has read every input that output's
    successors need.  OCaml shares one empty array, so two distinct
    empty arrays are accepted.  Raises [Invalid_argument] prefixed with
    [what] otherwise. *)

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
  (** Equation (1): [fir] then [recurrence].  The reference. *)

  val solve :
    S.t Signature.t -> S.t array -> S.t array -> base:int -> lo:int ->
    hi:int -> unit
  (** [solve s x y ~base ~lo ~hi] writes outputs [lo, hi) of [y] for the
      chunk of [x] that starts at [base]: output [i] sums the taps down to
      [x(max 0 (i - taps + 1))] and the feedback terms down to
      [y(max base (i - k))], so [y] must already hold outputs [max base
      (lo - k), lo).  With [base = 0] the outputs are {!full}'s.  The
      kernel for the storage is chosen from {!Plr_util.Scalar.S.rep}.
      Bounds are not checked. *)

  val solve_boxed :
    forward:S.t array -> feedback:S.t array -> S.t array -> S.t array ->
    base:int -> lo:int -> hi:int -> unit
  (** {!solve}'s boxed loop on its own, for any scalar: the faulted
      replay's solve and the tests' reference for the flat kernels. *)

  val full_into : S.t Signature.t -> src:S.t array -> dst:S.t array -> unit
  (** {!full} into the first [Array.length src] elements of the
      caller-allocated [dst], through {!solve}: bitwise {!full}, with no
      boxed float on the way.  [dst] must not overlap [src]; a short
      [dst], or [src] itself, raises [Invalid_argument] ({!check_into}). *)

  val validate : ?tol:float -> expected:S.t array -> S.t array -> (unit, string) result
  (** Element-wise comparison in the paper's style.  [tol] defaults to
      [1e-3] and only matters for floating scalars.  On failure the message
      reports the first mismatching index and both values. *)
end
