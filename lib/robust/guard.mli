(** Guarded execution: run a parallel PLR backend, verify the result, and
    degrade along an explicit policy instead of returning silent garbage.

    The guard wraps any runner (the modeled-GPU engine, the multicore CPU
    backend, or the JIT kernel) and checks its output for
    non-finite values and for forward error against a serial reference
    prefix.  On a violation — including an engine exception such as a
    detected protocol stall — it falls back, in order:

    + the parallel backend it was given;
    + the chunked algorithm on one domain
      ([Multicore.run_sequential_fallback]), which removes every
      scheduling assumption;
    + a float64-promoted serial evaluation (for floating scalars; integer
      scalars re-run the exact serial reference instead, since their
      wrap-around semantics are the defined ground truth).

    Every attempt and the violation that ended it are reported in the
    {!outcome}, so a caller can always distinguish "parallel result,
    verified" from "degraded" from "the recurrence itself diverges".

    Before any O(n) work the guard consults {!Stability}: an
    unstable-class signature whose correction factors provably overflow
    the scalar's float width within the input length skips the doomed
    parallel attempts outright (recorded as [Predicted_overflow]). *)

module Faults = Plr_gpusim.Faults

type stage =
  | Parallel             (** the caller-supplied parallel runner *)
  | Sequential_fallback  (** one-domain chunked execution *)
  | Float64_serial       (** float64-promoted (or exact integer) serial *)

type violation =
  | Non_finite of { index : int }
      (** a NaN or infinity in the output (floating scalars only) *)
  | Divergence of { index : int; got : float; expected : float; tol : float }
      (** forward error against the serial reference beyond [tol] *)
  | Engine_error of string
      (** the runner raised (protocol stall, injected fault, …) *)
  | Predicted_overflow of { index : int }
      (** stability analysis predicts factor overflow before the input
          ends; the stage was skipped, not run *)

type attempt = { stage : stage; violation : violation option }

type check =
  | No_reference       (** only the non-finite scan *)
  | Prefix of int      (** serial reference over the first [n] elements *)
  | Full               (** serial reference over the whole input *)

module Make (S : Plr_util.Scalar.S) : sig
  type runner = S.t Signature.t -> S.t array -> S.t array

  type outcome = {
    output : S.t array;
    stability : Stability.report;
    attempts : attempt list;  (** in the order tried; the accepted attempt
                                  is last and has [violation = None] *)
    degraded : bool;          (** a fallback stage produced [output] *)
    ok : bool;                (** [output] passed every armed check *)
  }

  val scan_non_finite : S.t array -> int option
  (** The index of the first NaN or infinity in a floating output;
      [None] for integer scalars.  The check behind {!Non_finite}. *)

  val run :
    ?tol:float -> ?check:check -> ?probe:int ->
    ?stability:Stability.report -> runner ->
    S.t Signature.t -> S.t array -> outcome
  (** [run runner s x] executes the degradation policy above.  [tol]
      (default 1e-3, the paper's §5 bound) only matters for floating
      scalars; [check] defaults to [Prefix 4096]; [probe] is forwarded to
      {!Stability.analyze}.  [stability] supplies a precomputed report for
      this signature (the serve layer's plan cache) and skips the
      analysis entirely.  When even the final fallback fails its checks
      (a genuinely divergent recurrence), [ok] is false and [output] is the
      final fallback's result — with the failure recorded, never silent. *)

  val gpusim_runner :
    ?opts:Plr_core.Opts.t -> ?faults:Faults.plan -> ?threads_per_block:int ->
    ?x:int -> ?lookback_window:int -> spec:Plr_gpusim.Spec.t -> unit -> runner
  (** The modeled-GPU engine.  The optional shape arguments pin the plan
      via [Plan.compile_with] (the chaos harness uses small chunks so the
      look-back pipeline is exercised); by default the paper's compilation
      heuristics choose the shape. *)

  val multicore_runner :
    ?opts:Plr_core.Opts.t -> ?faults:Faults.plan ->
    ?plan:Plr_factors.Factor_plan.Make(S).t -> ?cancel:Plr_exec.Cancel.t ->
    ?pool:Plr_exec.Pool.t ->
    ?domains:int -> ?chunk_size:int -> unit -> runner
  (** The single-pass CPU engine; [pool]/[domains] select the persistent
      domain pool, [plan] injects a precompiled factor plan (the serve
      layer's cache), and [chunk_size] passes through to
      {!Plr_multicore.Multicore.Make.run}, whose look-back window is its
      default.
      [cancel] is polled at chunk boundaries; when it fires, the guard
      re-raises {!Plr_exec.Cancel.Cancelled} instead of degrading — a
      cancelled request is the caller's abort, not an engine fault. *)

  module JB : module type of Plr_jit.Backend.Make (S)

  val jit_runner : jit:JB.t -> fallback:runner -> runner
  (** Try the native JIT kernel first, handing the input to [fallback]
      whenever it is unavailable (still building, build failed, poisoned
      by its first-use bitwise validation, …) — the [jit.fallback] trace
      instant is recorded by the backend itself.  A JIT result is already
      bitwise-identical to the serial reference by construction, so the
      guard's check ladder passes it untouched. *)

  val pp_outcome : Format.formatter -> outcome -> unit
end

val stage_to_string : stage -> string
val violation_to_string : violation -> string
