(** Stateful streaming evaluation: process an unbounded signal in arbitrary
    chunks while producing exactly the same output as one offline pass.

    This is the API a real-time DSP consumer of PLR needs (the paper's §1
    telecom/audio motivation): audio arrives in buffers, but the recurrence
    state must flow across buffer boundaries.  A piece arrives with its
    final carries, so nothing is left to look back for: each piece is the
    serial recurrence (§2) continued from the carried state — a short
    prologue over the carries and the FIR input tail, then one call of
    the serial kernel {!Plr_serial.Serial.Make.solve}, which writes the
    returned array directly.  The concatenated output is bitwise
    {!Plr_serial.Serial.Make.full} over the concatenated input, for every
    scalar, every split into pieces and every pool.

    The state words (carries, FIR input tail, position) are exposed for
    snapshot and restore, so {!Plr_serve.Session} wraps a stream with
    checkpoint/journal recovery instead of reimplementing the filter. *)

module Make (S : Plr_util.Scalar.S) : sig
  type t

  val create :
    ?pool:Plr_exec.Pool.t -> ?domains:int -> S.t Signature.t -> t
  (** A fresh stream in the zero state (as if preceded by zeros).  [pool]
      (default: the registry pool for [domains]) runs only the engine of
      a {!process_faulted} step; a clean piece is solved on the calling
      domain. *)

  val process : t -> S.t array -> S.t array
  (** Filter the next chunk (any length, including empty) and advance the
      internal state.  The outputs since {!create} or {!reset} are
      bitwise {!Plr_serial.Serial.Make.full} over the inputs since then,
      unless a {!restore} came between. *)

  val process_faulted : t -> seed:int -> tol:float -> S.t array -> S.t array
  (** {!process} preceded by a detection-only engine step: the pooled
      look-back engine solves the chunk from the zero state under the
      fault plan drawn from [seed] (16-element chunks) and is checked
      whole against the serial reference (within [tol] for floats).  The
      engine's output is never returned or committed.
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
