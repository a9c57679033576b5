(** Resilient streaming sessions: sticky recurrence state with periodic
    checkpoints and O(k³ log g) fast-forward recovery.

    A session is a {!Plr_multicore.Stream} (the stateful filter: chunks
    arrive over time, the recurrence state — output carries + FIR input
    tail — flows across calls, and the concatenated outputs are exactly
    one offline pass) wrapped in the shared recovery layer
    {!Plr_exec.Recoverable}:

    - every state word is covered by a {b digest}; a snapshot
      ({!Plr_robust.Companion.Make.Checkpoint}) is taken every
      [checkpoint_every] elements, and the segments processed since live
      in a bounded {b journal};
    - a detected fault — state corruption caught by the digest, a crash,
      or an engine fault caught by the stream's whole-chunk verification
      — triggers {b recovery}: restore the last checkpoint and replay only
      the journal, with input-free gaps skipped by companion-matrix powers
      instead of replayed.  Replay runs the exact original code path, so
      the rebuilt state is bit-identical to the unfaulted run's;
    - gaps ({!Make.skip}) fast-forward in O(k³ log g) after a
      [taps - 1]-element warm-up, never materializing the zeros.

    The session adds no filter code of its own, so its output is bitwise
    the stream's.  Fault injection (the [?fault] arguments) drives the
    same paths deterministically for the chaos harness; the emitted trace spans ([session.checkpoint],
    [session.recover], [session.ff]) let tests prove recovery used
    checkpoint + fast-forward, not full replay. *)

type fault = Plr_exec.Recoverable.fault =
  | Crash  (** lose the in-memory state before the next call's work *)
  | Corrupt_state  (** silently flip one live state word *)
  | Engine_fault of int
      (** run the next chunk's engine under the seeded fault plan *)

val fault_to_string : fault -> string

module Make (S : Plr_util.Scalar.S) : sig
  module Companion : module type of Plr_robust.Companion.Make (S)

  type t

  type stats = {
    position : int;  (** elements consumed so far *)
    checkpoints : int;  (** snapshots taken *)
    recoveries : int;  (** checkpoint restorations performed *)
    fastforwards : int;  (** companion skip-aheads (gaps + recoveries) *)
    detected : int;  (** faults detected (digest mismatch or engine) *)
    replayed : int;  (** data elements re-processed across recoveries *)
    migrations : int;  (** pool moves performed by {!migrate} *)
  }

  val create :
    ?pool:Plr_exec.Pool.t ->
    ?domains:int ->
    ?opts:Plr_factors.Opts.t ->
    ?metrics:Metrics.t ->
    ?checkpoint_every:int ->
    ?tol:float ->
    S.t Signature.t -> t
  (** A fresh session in the zero state.  [checkpoint_every] (default
      1024) is the snapshot cadence in elements; [tol] (default 1e-3)
      bounds the faulted-chunk verification for floating scalars (integer
      scalars compare exactly).  [metrics] feeds the serving layer's
      session counters. *)

  val process : ?fault:fault -> t -> S.t array -> S.t array
  (** Filter the next chunk and advance the state.  [fault] injects the
      given fault into this call.
      The output — faulted call or not — is exactly the unfaulted
      stream's output for this range: faults are detected and recovered,
      never served. *)

  val skip : ?fault:fault -> t -> int -> unit
  (** [skip t g] consumes a gap of [g] zero inputs without materializing
      them: a [taps - 1] warm-up through the data path, then one
      companion-matrix fast-forward.  An armed [Engine_fault] is consumed
      (a gap runs no engine); state faults are detected as in
      {!process}.  @raise Invalid_argument on a negative gap. *)

  val migrate : t -> pool:Plr_exec.Pool.t -> unit
  (** Move the session to [pool] (in the serving layer: another shard).
      Sticky sessions are never work-stolen — a move is explicit and
      reuses the recovery path: the last checkpoint is restored and the
      journal replayed on the destination pool, so the rebuilt state is
      bit-identical to the pre-migration state and subsequent outputs
      are unaffected.  A no-op when [pool] is already the session's
      pool.  Counted in {!stats.migrations} (and
      {!Metrics.t.session_migrations} when the session carries metrics);
      emits a [session.migrate] trace span.
      @raise Failure if the last checkpoint fails its digest check. *)

  val signature : t -> S.t Signature.t
  val position : t -> int

  val carries : t -> S.t array
  (** Copy of the live carries, [carries.(j) = y(pos-1-j)] — for tests
      comparing recovered state against an unfaulted twin. *)

  val stats : t -> stats
end
