(** The instrumented computational core of the PLR algorithm: Phase 1's
    hierarchical chunk merging and Phase 2's carry arithmetic, operating on
    one chunk's data in place while recording the traffic and operations the
    emitted CUDA would perform.

    All functions are driven by {!Engine}; they are exposed separately so
    tests can check the paper's §2.3 worked example at every intermediate
    step. *)

module Device = Plr_gpusim.Device
module Analysis = Plr_nnacci.Analysis

module Make (S : Plr_util.Scalar.S) : sig
  module P : module type of Plan.Make (S)

  type work = { wget : int -> S.t; wset : int -> S.t -> unit }
  (** Accessors over one chunk's working storage (the modeled device's
      registers/shared memory).  The kernels below only see the
      accessors. *)

  val work_make : int -> work
  (** {!work_of_array} over a fresh [S.t array] of the given length
      (flat for float scalars). *)

  val work_of_array : S.t array -> work
  (** View an existing array as working storage, in place (no copy) —
      lets tests inspect intermediate chunk states. *)

  type ctx = {
    dev : Device.t;
    plan : P.t;
    factor_base : int;  (** device address of the factor tables *)
    input_base : int;   (** device address of the input buffer *)
    fhooks : P.F.hooks;
        (** factor-plan hooks charging the device counters; built by
            {!make_ctx} *)
  }

  val make_ctx :
    dev:Device.t -> plan:P.t -> factor_base:int -> input_base:int -> ctx
  (** Build a kernel context whose hooks charge factor loads (shared-memory
      read inside the cached prefix, global read otherwise) and arithmetic
      against [dev]. *)

  val fir_chunk :
    ctx -> input:S.t array -> start:int -> work:work -> len:int -> unit
  (** Map stage (equation 2): fills [work.(0..len-1)] with the FIR of the
      input at global positions [start..start+len-1].  Reads of the up-to-p
      boundary values preceding [start] are charged as global reads; the
      chunk's own values are assumed already loaded in [work]. *)

  val phase1_levels : P.t -> int
  (** Number of doubling levels (10 for 1024-thread blocks). *)

  val phase1_merge_level :
    ctx -> work -> len:int -> group:int -> unit
  (** One doubling iteration: merges adjacent pairs of [group]-sized chunks
      within [work] (paper §2.1), applying correction factors with the
      plan's specializations.  Exposed for the worked-example tests. *)

  val phase1_chunk : ctx -> work -> len:int -> unit
  (** Full Phase 1 on one chunk: per-thread serial solve of x-element
      slices, then all doubling levels (intra-warp via shuffles, then
      across warps via shared memory). *)

  val apply_carries : ctx -> work -> len:int -> g:S.t array -> unit
  (** Phase 2 correction: [work.(q) += Σ_j factors.(j).(q) · g.(j)] for all
      [q], with the same specializations and zero-tail suppression.
      [g.(j)] is carry [j] of the predecessor chunk ([j = 0] is its last
      element). *)

  val correct_carries : ctx -> local:S.t array -> g_prev:S.t array -> S.t array
  (** The look-back carry correction (paper §2.3): turns a chunk's local
      carries into global carries given the predecessor's global carries,
      using the last k correction factors — O(k²) work. *)

  val carries_of_chunk : P.t -> work -> len:int -> S.t array
  (** The last [min k len] values of a chunk in carry order (index 0 = last
      element), zero-padded to k. *)
end
