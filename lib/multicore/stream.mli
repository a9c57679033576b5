(** Stateful streaming evaluation: process an unbounded signal in arbitrary
    chunks while producing exactly the same output as one offline pass.

    This is the API a real-time DSP consumer of PLR needs (the paper's §1
    telecom/audio motivation): audio arrives in buffers, but the recurrence
    state must flow across buffer boundaries.  Each chunk is solved locally
    with the parallel backend and then corrected with the same n-nacci
    factors Phase 2 uses, against the carries saved from the previous
    chunk — i.e. the stream is a decoupled look-back pipeline whose chunks
    arrive over time instead of over thread blocks.

    The state words (carries, FIR input tail, position) are exposed for
    snapshot and restore, so {!Plr_serve.Session} wraps a stream with
    checkpoint/journal recovery ({!Plr_exec.Recoverable}) instead of
    reimplementing the filter. *)

module Make (S : Plr_util.Scalar.S) : sig
  type t

  val create :
    ?pool:Plr_exec.Pool.t ->
    ?domains:int -> ?opts:Plr_factors.Opts.t -> S.t Signature.t -> t
  (** A fresh stream in the zero state (as if preceded by zeros).  [pool]
      (default: the registry pool for [domains]) supplies the persistent
      worker domains used for both the local solves and, on large
      buffers, the boundary-correction sweep.  [opts] (default
      {!Plr_factors.Opts.all_on}) selects the factor specializations used
      by the boundary-correction sweep; the compiled factor plan is grown
      geometrically as larger chunks arrive. *)

  val process : t -> S.t array -> S.t array
  (** Filter the next chunk (any length, including empty) and advance the
      internal state. *)

  val process_faulted : t -> seed:int -> tol:float -> S.t array -> S.t array
  (** {!process} with the local solve run under the fault plan drawn from
      [seed] (16-element chunks), checked whole against the serial
      reference (within [tol] for floats) before any state is committed.
      @raise Plr_exec.Lookback.Fault_detected if the faulted engine raised
      or diverged; the state is then unchanged. *)

  val reset : t -> unit
  (** Back to the zero state. *)

  val signature : t -> S.t Signature.t

  (** {2 State words}

      Elements consumed, copies of the carries
      ([carries.(j) = y(position-1-j)]) and of the last [taps - 1]
      inputs (most recent last); [restore] copies them back in and
      raises [Invalid_argument] on a length that does not match the
      signature. *)

  val position : t -> int
  val carries : t -> S.t array
  val input_tail : t -> S.t array

  val restore :
    t -> pos:int -> carries:S.t array -> input_tail:S.t array -> unit
end
