(** Time-varying first-order affine recurrences (SSM-style scans).

    The constant-coefficient signature DSL cannot express selective
    state-space workloads where the coefficients change per timestep.
    This subsystem evaluates

    {v y[i] = a[i] * y[i-1] + b[i] v}

    by lowering the recurrence to an associative scan over the operator
    pairs [(a, b)] with the composition

    {v (a2, b2) . (a1, b1) = (a2 * a1, a2 * b1 + b2) v}

    (ScanWeaver, PAPERS.md).  The chunked multicore path is the shared
    decoupled look-back protocol ({!Plr_exec.Lookback}) instantiated with
    pair carries: each chunk publishes its aggregate pair, looks back to
    the previous window boundary, folds the intervening aggregates in a
    fixed order starting from [(1, y0)], and publishes its inclusive
    carry [(a_prod, y_incl)] {e before} recomputing its own outputs with
    the serial chain from the received carry.  Constant-coefficient PLR
    ({!Plr_multicore.Multicore}) is the same protocol over k-vector
    (companion-matrix) carries.

    {b Determinism contract.}  Because every schedule (any pool size,
    any completion order, the faulted replay) folds carries in the
    identical fixed order, the engine's output is bitwise identical
    across schedules.  For integer scalars the carry composition is
    exact in the wrap-around ring, so the engine is additionally bitwise
    identical to {!Make.serial}.  For floating scalars the carries are
    reassociated (that is what makes the scan parallel), so chunk-entry
    values agree with the serial reference to rounding only — except on
    all-identity streams and on streams that reset ([a[i] = 0]) inside
    every chunk, where the divergence is truncated and the engine is
    bitwise serial again.  An unfaulted run of one chunk
    ([n <= chunk_size]) has no carry to fold and is bitwise
    {!Make.serial}, as are {!Make.serial_into} and {!Make.sparse}, for
    every scalar. *)

module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel

exception Fault_detected of string
(** {!Plr_exec.Lookback.Fault_detected}, rebound (one identity shared
    with {!Plr_multicore.Multicore.Fault_detected}). *)

val default_window : pool_size:int -> int

val default_chunk_size : domains:int -> int -> int
(** The shared chunk and window policy of {!Plr_exec.Lookback}. *)

module Make (S : Plr_util.Scalar.S) : sig
  val serial : ?y0:S.t -> S.t array -> S.t array -> S.t array
  (** [serial a b] is the reference evaluator and the correctness oracle
      the other evaluators are tested against: the plain chain
      [y := a*y + b] from [y0] (default {!S.zero}), through the boxed
      functor operations [S.add] and [S.mul].  Raises [Invalid_argument]
      when the coefficient streams differ in length. *)

  val serial_into : ?y0:S.t -> S.t array -> S.t array -> dst:S.t array -> unit
  (** {!serial} into a caller-owned destination (reusable across calls —
      the steady-state shape).  Monomorphic: it dispatches once on
      {!S.rep}, native ints and floats run a flat loop over their arrays
      (floats rounding to binary32 after each operation for
      {!Plr_util.Scalar.F32}), and other scalars run the boxed chain.
      Same operations in the same order as {!serial}, so bitwise equal.
      Raises [Invalid_argument] when [dst] is shorter than the inputs. *)

  (** Precompiled run-length structure of a coefficient stream: maximal
      runs (at least {!Runs.min_run} long) of identity steps
      ([a = 1, b = 0]) and reset steps ([a = 0]), with everything else
      left dense.  Building the plan is one pass through the functor's
      [S.is_zero] and [S.is_one].  A plan pays only when it is reused
      across evaluations of the same streams: identity runs then cost a
      real step or two plus a fill. *)
  module Runs : sig
    type t

    val min_run : int
    (** Runs shorter than this stay dense (the segment bookkeeping
        would cost more than it saves). *)

    val build : S.t array -> S.t array -> t
    (** [build a b] scans the coefficient streams once. *)

    val length : t -> int
    val segments : t -> int
    val identity_fraction : t -> float
    (** Fraction of elements covered by identity segments. *)
  end

  val sparse : ?y0:S.t -> ?runs:Runs.t -> S.t array -> S.t array -> S.t array
  (** [sparse a b]: the run-length fast path, bitwise identical to
      {!serial} for every scalar.

      Without [runs] it builds no plan and runs the {!serial_into}
      chain, since building a plan costs more than one evaluation saves.
      For native ints no plan could pay: the chain is exact in the
      wrap-around ring and runs at memory speed, so classifying steps
      costs more than the multiplies it would skip.

      With a [runs] plan (built by {!Runs.build} from the same streams;
      its length is validated against them) the plan's segments run
      instead: dense segments on the monomorphic chains, int reset runs
      as a blit ([0*y + b = b] exactly in the ring), float reset runs on
      the real operations ([0 * y] depends on the sign and finiteness of
      [y]), and identity runs as fills.  The float fill rule: an
      identity step [1*y + (+-0.0)] maps every output of a real step to
      itself, except [-0.0], which a [b = +0.0] step turns into [+0.0].
      So a float identity run takes real steps — at least one, since the
      incoming state need not be a rounded value, and then as long as
      the state is [-0.0] — and fills the rest with the state.  A run
      may mix [b = +0.0] and [b = -0.0]. *)

  val sparse_into :
    ?y0:S.t -> ?runs:Runs.t -> S.t array -> S.t array -> dst:S.t array -> unit
  (** {!sparse} into a caller-owned destination.  With or without a
      plan, a warmed call on a reused [dst] allocates nothing per
      element.  Raises [Invalid_argument] when [dst] is shorter than the
      inputs or [runs] is for another length. *)

  val run :
    ?faults:Faults.plan ->
    ?cancel:Cancel.t ->
    ?pool:Pool.t ->
    ?domains:int ->
    ?chunk_size:int ->
    ?window:int ->
    ?y0:S.t ->
    S.t array ->
    S.t array ->
    S.t array
  (** [run a b]: the chunked two-phase engine (see the module preamble for the
      determinism contract).  Storage dispatches on {!S.rep}: floats and
      native ints run monomorphic kernels on the caller's flat arrays,
      other scalars the generic kernels — all schedules and storages
      produce bitwise-identical output.  On floats and native ints a
      call allocates per chunk beyond its output, not per element.
      Look-back carries are cross-checked against already-published
      inclusive carries before commit; a mismatch raises
      {!Fault_detected}.  A non-inert [faults] plan
      routes to the deterministic faulted replay
      ({!Plr_exec.Lookback.Make.run_faulted}: sequential, under the plan's
      completion permutation), which raises {!Fault_detected} on dropped
      publications and failed carry verification; a poisoned chunk
      publishes a poisoned aggregate and writes garbage into its own
      first and last outputs. *)
end
