(** A real parallel CPU backend for the PLR algorithm, using OCaml 5
    domains.

    The paper notes (§7) that the algorithm, the hierarchical
    parallelization, and most optimizations "apply equally to CPUs"; this
    module is that port: a single-pass engine running the shared
    decoupled look-back protocol ({!Plr_exec.Lookback}) on a persistent
    {!Plr_exec.Pool}, instantiated with k-vector carries:

    - each chunk is solved locally in one fused sweep (the FIR map stage
      reads the immutable input tail directly, the feedback stage reads
      only the chunk's own output — no serial pre-pass, no slice copies);
      its local carries are its last k solved elements;
    - [combine] promotes local carries to inclusive ones with the shared
      n-nacci correction factors, adding in the same order as the
      correction sweep, so a promoted carry is bitwise the corrected
      element and every pool size — one domain included — gives the same
      output;
    - the exclusive carries are applied as the O(chunk) correction sweep,
      after the chunk's inclusive carries are published.

    The correction factors are compiled once per run through the shared
    {!Plr_factors.Factor_plan}, so the CPU hot path inherits the paper's
    §3.1 specializations (all-equal folding, 0/1 conditional add,
    decayed-tail skipping) under the same {!Plr_factors.Opts} toggles as
    the GPU model.

    {2 Storage}

    The chunk operations dispatch on {!Plr_util.Scalar.S.rep}: float
    scalars run on unboxed {!Plr_util.Buf.t} float64 storage (conversion
    from/to boxed [float array] happens only at the [run] API boundary;
    {!Make.run_into} skips it entirely), native ints run monomorphic
    kernels on their already-flat arrays, and every other scalar keeps the
    generic boxed kernels.  The float and int local solves are
    specialized on the signature's order (floats 1–3, ints 1–2), carrying
    the last k outputs in locals.  All storage paths execute the identical
    operation and rounding sequence, so outputs are bitwise identical
    across them. *)

module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel

exception Fault_detected of string
(** {!Plr_exec.Lookback.Fault_detected}, rebound: a carry failed its
    before-commit verification, or an injected fault left the protocol
    unable to make progress. *)

val faulted_lookback_window : int
(** {!Plr_exec.Lookback.faulted_lookback_window}. *)

val solve_tail_f :
  f32:bool -> forward:float array -> feedback:float array -> Plr_util.Buf.t ->
  Plr_util.Buf.t -> lo:int -> hi:int -> unit
(** [solve_tail_f ~f32 ~forward ~feedback x y ~lo ~hi] writes outputs
    [lo, hi) of [y] once the k = [Array.length feedback] outputs before
    [lo >= k] are in [y]: the kernel for orders 1–3, the generic loop
    above, with [Serial.full]'s operation order and, when [f32], its
    binary32 rounding.  Output [i] sums the taps down to [x(max 0
    (i - taps + 1))].  Bounds are not checked. *)

val solve_tail_i :
  forward:int array -> feedback:int array -> int array -> int array ->
  lo:int -> hi:int -> unit
(** {!solve_tail_f} on flat [int array] storage (kernels for orders
    1–2). *)

module Make (S : Plr_util.Scalar.S) : sig
  val solve_range :
    forward:S.t array -> feedback:S.t array -> S.t array -> S.t array ->
    base:int -> lo:int -> hi:int -> unit
  (** The generic boxed chunk solve: outputs [lo, hi) of the chunk that
      starts at [base], whose feedback terms reach back to [base] only. *)

  val default_chunk_size : domains:int -> int -> int
  (** {!Plr_exec.Lookback.default_chunk_size}: the chunk size [run] uses
      when none is given. *)

  val run :
    ?opts:Plr_factors.Opts.t ->
    ?faults:Faults.plan ->
    ?plan:Plr_factors.Factor_plan.Make(S).t ->
    ?cancel:Cancel.t ->
    ?pool:Pool.t ->
    ?domains:int ->
    ?chunk_size:int ->
    ?window:int -> S.t Signature.t -> S.t array -> S.t array
  (** [run s x] computes the recurrence in parallel on a persistent
      domain pool.  [pool] (default: the registry pool for [domains],
      itself defaulting to [Domain.recommended_domain_count ()]) supplies
      the worker domains — no domain is spawned per call.  [chunk_size]
      defaults to {!default_chunk_size}; [window] overrides the pooled
      schedule's look-back window
      ({!Plr_exec.Lookback.default_window}).  [opts]
      (default {!Plr_factors.Opts.all_on}) selects the factor
      specializations applied during carry promotion and correction.

      [plan] supplies a precompiled factor plan (the serve layer's plan
      cache) and skips the per-call {!Plr_factors.Factor_plan.of_feedback}
      precomputation.  It must have been compiled from this signature's
      feedback; a plan whose order, [opts], or factor count does not cover
      this run is ignored and the factors are recompiled.  When no
      [chunk_size] is given the run shapes itself to the plan's [m].

      [faults] (default {!Faults.none}) injects deterministic
      perturbations into the look-back protocol for the chaos harness:
      a non-empty plan runs {!Plr_exec.Lookback.Make.run_faulted} on the
      boxed kernels — poisoned chunks receive garbage values, corrupted
      carry publications fail verification inside the window (raising
      {!Fault_detected}) and diverge at a window boundary, dropped
      publications are routed around when the window never reads them
      and raise {!Fault_detected} when the protocol would stall.  With
      the default plan the code path is exactly the unfaulted
      algorithm.

      [cancel] (default {!Plr_exec.Cancel.none}) is a cooperative
      cancellation token polled at every chunk boundary (and by the pool
      before every task claim): when it fires mid-run — explicitly or
      because its deadline passed — the run abandons its remaining chunks
      and raises {!Plr_exec.Cancel.Cancelled}. *)

  val run_into :
    ?opts:Plr_factors.Opts.t ->
    ?plan:Plr_factors.Factor_plan.Make(S).t ->
    ?cancel:Cancel.t ->
    ?pool:Pool.t ->
    ?domains:int ->
    ?chunk_size:int ->
    ?window:int ->
    S.t Signature.t ->
    src:Plr_util.Buf.t ->
    dst:Plr_util.Buf.t ->
    unit
  (** Unboxed entry point for float scalars: reads [src] and writes the
      first [Buf.length src] elements of the caller-allocated [dst]
      (which may be reused across calls, and must not overlap [src]),
      with no boxed-float conversion on either side.  Raises
      [Invalid_argument] for non-float scalars, when [dst] is shorter
      than [src] or when [dst] is [src] ({!Plr_util.Buf.check_into}).
      Results are bitwise identical to {!run} on the same input. *)

  val run_sequential_fallback :
    ?opts:Plr_factors.Opts.t ->
    ?chunk_size:int -> S.t Signature.t -> S.t array -> S.t array
  (** The same chunked algorithm executed on one domain — used by the
      guard (and by tests) to separate algorithmic correctness from
      scheduling.  [chunk_size] defaults to a fixed small number of
      chunks computed from the input length alone. *)
end
