(** Dispatch + safety wrapper over {!Jit}: prepare a native kernel for a
    compiled factor plan and run it with verify-then-trust semantics.

    A prepared backend is {e never} a correctness dependency: {!Make.run}
    answers [None] — after recording a [jit.fallback] trace instant whose
    first argument is a reason code — whenever the kernel cannot be used,
    and the caller keeps its OCaml path as the fallback.  The first
    successful run per prepared backend is verified against the OCaml
    serial reference on the caller's own input — bitwise, except that
    any NaN agrees with any NaN (see {!Make.run}); a mismatch poisons
    the kernel permanently. *)

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
(** First-use verification failed. *)

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
  (** The dispatched fast path ([plr_jit_run], serial operation order).
      [Some y] is bitwise-identical to [Serial.full] (guaranteed by
      construction and checked on first use), except that a NaN output
      may differ from the reference's NaN in sign and payload: where two
      NaNs meet in an add, the C compiler's operand order decides which
      one propagates.  The first-use check takes any NaN for any NaN and
      every other value by its bits.  [None] means fall back. *)

  val run_into : t -> src:Plr_util.Buf.t -> dst:Plr_util.Buf.t -> bool
  (** {!run} over unboxed float64 storage (float scalars only; [false]
      for int scalars or whenever {!run} would answer [None]).  The
      first call routes through the boxed verifier.  [dst] must not
      overlap [src]: on a float scalar, a [dst] shorter than [src], or
      [src] itself, raises [Invalid_argument]
      ({!Plr_util.Buf.check_into}) before the kernel runs. *)

  val run_chunked : t -> m:int -> S.t array -> S.t array option
  (** The §3 two-phase chunked kernel with per-class specialized
      correction sweeps, at chunk size [m] (clamped to the factor-table
      length).  Exposed for tests and demos; not verified-on-first-use —
      dispatch goes through {!run}. *)

  val source : t -> string
  val state : t -> Jit.state
  val wait : t -> Jit.state
  (** Spin out a pending async build. *)

  val ready : t -> bool
  val validated : t -> bool
  val poisoned : t -> bool
end
