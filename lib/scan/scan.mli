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
    bitwise serial again.  {!Make.sparse} and {!Make.Stream} evaluate
    serially from exact carries and are bitwise serial for every
    scalar. *)

module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Buf = Plr_util.Buf

exception Fault_detected of string
(** {!Plr_exec.Lookback.Fault_detected}, rebound (one identity shared
    with {!Plr_multicore.Multicore.Fault_detected}). *)

val default_window : pool_size:int -> int

val default_chunk_size : domains:int -> int -> int
(** The shared chunk and window policy of {!Plr_exec.Lookback}. *)

module Make (S : Plr_util.Scalar.S) : sig
  val serial : ?y0:S.t -> S.t array -> S.t array -> S.t array
  (** [serial a b] is the reference evaluator: the plain chain
      [y := a*y + b] from [y0] (default {!S.zero}).  Raises
      [Invalid_argument] when the coefficient streams differ in
      length. *)

  val serial_into : ?y0:S.t -> S.t array -> S.t array -> dst:S.t array -> unit
  (** {!serial} into a caller-owned destination (reusable across calls —
      the steady-state shape).  Raises [Invalid_argument] when [dst] is
      shorter than the inputs. *)

  (** Precompiled run-length structure of a coefficient stream: maximal
      runs of identity steps ([a = 1, b = 0]) and reset steps
      ([a = 0]), with everything else left dense.  Building the plan is
      one pass; reusing it across evaluations (the serving and bench
      steady state) makes identity runs cost O(1) recurrence work plus
      a fill. *)
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
  (** [sparse a b]: run-length fast path, bitwise identical to {!serial} for every
      scalar: identity runs apply the real operation until the output
      repeats bitwise (at most two steps, since the identity operator is
      its own fixpoint — this is what makes [b = +0.0] against a
      [-0.0] state safe) and fill the remainder; reset runs are a blit
      for integer scalars ([0*y + b = b] exactly in the ring) and stay
      on the real operations for floating scalars (where [0 * y]
      depends on the sign and finiteness of [y]).  [runs] (validated
      against the stream length) skips the detection pass. *)

  val sparse_into :
    ?y0:S.t -> ?runs:Runs.t -> S.t array -> S.t array -> dst:S.t array -> unit
  (** {!sparse} into a caller-owned destination.  With a precompiled
      [runs] plan and a reused [dst] this is the fast path's steady
      state: identity runs cost one {!Array.fill} and nothing is
      allocated per call. *)

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
      determinism contract).  Storage dispatches on {!S.rep}: floats run
      on unboxed {!Buf.t} storage, native ints on flat arrays, other
      scalars on the generic kernels — all schedules and storages produce
      bitwise-identical output.  Look-back carries are cross-checked
      against already-published inclusive carries before commit; a
      mismatch raises {!Fault_detected}.  A non-inert [faults] plan
      routes to the deterministic faulted replay
      ({!Plr_exec.Lookback.Make.run_faulted}: sequential, under the plan's
      completion permutation), which raises {!Fault_detected} on dropped
      publications and failed carry verification; a poisoned chunk
      publishes a poisoned aggregate and writes garbage into its own
      first and last outputs. *)

  val run_into :
    ?cancel:Cancel.t ->
    ?pool:Pool.t ->
    ?domains:int ->
    ?chunk_size:int ->
    ?window:int ->
    ?y0:S.t ->
    Buf.t ->
    Buf.t ->
    dst:Buf.t ->
    unit
  (** [run_into a b ~dst]: Buf-in/Buf-out entry for float scalars: no boxed conversion, and
      [dst] is caller-owned, so a warmed-up run performs no per-element
      allocation.  Raises [Invalid_argument] for non-float scalars or
      when [dst] is shorter than the inputs. *)

  (** Streaming scan sessions: the pair carry recovered by the shared
      checkpoint/journal/replay layer ({!Plr_exec.Recoverable}), like
      {!Plr_serve.Session}.  The carry pair {e is} the fast-forward
      operator, so a gap is one compose — no companion powers needed.
      Pieces evaluate serially from the exact carry, so a stream's
      concatenated outputs are bitwise identical to {!serial} over the
      concatenated inputs, for every scalar.  An [Engine_fault] piece
      solves under that seed's injected fault plan and is verified whole
      against the serial reference before any state commits. *)
  module Stream : sig
    type t

    type fault = Plr_exec.Recoverable.fault =
      | Crash
      | Corrupt_state
      | Engine_fault of int

    type stats = {
      position : int;
      checkpoints : int;
      recoveries : int;
      fastforwards : int;
      detected : int;
      replayed : int;
    }

    val fault_to_string : fault -> string

    val create :
      ?pool:Pool.t ->
      ?domains:int ->
      ?checkpoint_every:int ->
      ?tol:float ->
      ?y0:S.t ->
      unit ->
      t

    val position : t -> int
    val value : t -> S.t
    (** The current carry [y[pos-1]] ([y0] before any input). *)

    val stats : t -> stats

    val process : ?fault:fault -> t -> S.t array -> S.t array -> S.t array
    (** [process t a b] feeds one piece of the coefficient streams and
        returns its outputs.
        Armed faults are detected (digest check, or whole-piece
        verification for engine faults), recovered from the last
        checkpoint by journal replay, and the piece re-runs cleanly —
        silent divergence is structurally impossible on this path. *)

    val skip : ?fault:fault -> t -> int -> unit
    (** A gap of [n] identity steps ([a = 1, b = 0]): the carry is
        unchanged, O(1) regardless of [n]. *)

    val fast_forward :
      ?fault:fault -> t -> a_prod:S.t -> b_fold:S.t -> steps:int -> unit
    (** Jump the stream over [steps] inputs whose composed operator is
        [(a_prod, b_fold)]: one compose, [y := a_prod*y + b_fold].
        Exact for integer scalars; to rounding for floats. *)
  end
end
