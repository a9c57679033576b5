(** Dispatch + safety wrapper over {!Jit}: prepare a native kernel for a
    compiled factor plan and run it with verify-then-trust semantics.

    A prepared backend is {e never} a correctness dependency: {!Make.run}
    answers [None] — after recording a [jit.fallback] trace instant whose
    first argument is a reason code — whenever the kernel cannot be used,
    and the caller keeps its OCaml path as the fallback.  Until a
    prepared backend is validated, each run is verified against the
    OCaml serial reference on the caller's own input — bitwise, except
    that any NaN agrees with any NaN (see {!Make.run}); a mismatch
    poisons the kernel permanently.  A match validates it only on an
    input of at least [max (taps - 1) k + k + 1] elements, long enough
    for the steady-state loop to run [k + 1] outputs on feedback it
    wrote itself; a shorter match leaves the kernel unchecked. *)

(** {1 Fallback reason codes} (the [jit.fallback] instant's [a0]) *)

val reason_disabled : int
(** [PLR_JIT=off]. *)

val reason_unsupported : int
(** The scalar has no native C representation. *)

val reason_no_toolchain : int
(** No C compiler resolves on this machine. *)

val reason_build_failed : int
(** cc or dlopen failed (see {!Jit.state}). *)

val reason_building : int
(** Async build still in flight. *)

val reason_poisoned : int
(** A verification before validation failed. *)

val reason_to_string : int -> string

module Make (S : Plr_util.Scalar.S) : sig
  module C : module type of Plr_codegen.Cemit.Make (S)
  module P = C.P
  module F = P.F

  type t

  val supported : bool
  (** Same as {!Plr_codegen.Cemit.Make.supported}. *)

  val prepare :
    ?mode:[ `Sync | `Async ] -> fplan:F.t -> S.t Signature.t -> t option
  (** Emit the C for this plan and start (or join) its build.  [None] —
      with the [jit.fallback] instant recorded — when the JIT is
      disabled, the scalar unsupported, or no toolchain resolves.
      [`Async] (serve plan builds) never blocks on cc; [`Sync] (the
      default) builds inline. *)

  val prepare_plan : ?mode:[ `Sync | `Async ] -> P.t -> t option

  val prepare_source :
    ?mode:[ `Sync | `Async ] -> source:string -> S.t Signature.t -> t
  (** Build from an arbitrary translation unit bound to [s]'s reference
      semantics — the tests' hook for forcing mismatch poisoning. *)

  val run : t -> S.t array -> S.t array option
  (** The dispatched fast path ([plr_jit_run], serial operation order),
      called directly on the OCaml arrays: a float scalar's flat
      [float array], or a native int's tagged words through the unit's
      [plr_jit_run_tagged] entry (an int unit without it falls back,
      reason {!reason_build_failed}).  The stub keeps the runtime lock
      for the whole call, so no collection moves the arrays under the
      kernel; a long call delays the other domains' stop-the-world
      collections by its length.
      [Some y] is bitwise-identical to [Serial.full] (guaranteed by
      construction and checked until validated), except that a NaN output
      may differ from the reference's NaN in sign and payload: where two
      NaNs meet in an add, the C compiler's operand order decides which
      one propagates.  The check takes any NaN for any NaN and every
      other value by its bits.  [None] means fall back. *)

  val run_into : t -> src:S.t array -> dst:S.t array -> bool
  (** {!run} into the first [Array.length src] elements of the
      caller-allocated [dst], with no output allocated ([false] whenever
      {!run} would answer [None]).  Until the kernel is validated, a
      call routes through the verifier.  [dst] must not overlap [src]: a
      [dst] shorter than [src], or [src] itself when not empty, raises
      [Invalid_argument] ({!Plr_serial.Serial.check_into}) before the
      kernel runs. *)

  val run_chunked : t -> m:int -> S.t array -> S.t array option
  (** The §3 two-phase chunked kernel with per-class specialized
      correction sweeps, at chunk size [m] (clamped to the factor-table
      length), bridged through Bigarray copies.  Exposed for tests and
      demos; never verified — dispatch goes through {!run}. *)

  val source : t -> string
  val state : t -> Jit.state
  val wait : t -> Jit.state
  (** Spin out a pending async build. *)

  val ready : t -> bool
  val validated : t -> bool
  val poisoned : t -> bool
end
