(** Parameter auto-tuning for PLR — the future work of paper §3/§6.1.1:
    "most of the recurrences we tested yield higher performance for other
    values of m and/or x.  SAM uses an auto-tuner to find the best value of
    x for different input sizes.  Optimizing these parameters in PLR is
    left for future work."

    [tune] sweeps the launch shape (threads per block × values per thread)
    and the shared-memory factor budget over the cost model and returns the
    fastest plan — the same mechanism SAM's installation-time auto-tuner
    uses, but driven by the machine model instead of wall-clock trials.
    Tuned plans run through the unchanged engine, so they remain fully
    validated.

    The multicore CPU backend has no tuner: it runs the fixed chunk-size
    and look-back-window heuristics of [Plr_exec.Lookback]
    (docs/performance.md records why the measured one was deleted). *)

module Make (S : Plr_util.Scalar.S) : sig
  module P : module type of Plan.Make (S)

  type candidate = {
    threads_per_block : int;
    x : int;
    cache_budget : int;
    predicted_time : float;
    predicted_throughput : float;
  }

  val candidates :
    ?opts:Opts.t -> spec:Plr_gpusim.Spec.t -> n:int -> S.t Signature.t ->
    candidate list
  (** Every swept configuration with its modeled performance, fastest
      first. *)

  val tune :
    ?opts:Opts.t -> spec:Plr_gpusim.Spec.t -> n:int -> S.t Signature.t -> P.t
  (** The fastest plan.  Never slower (under the model) than the paper's
      default heuristics. *)

  val default_candidate :
    ?opts:Opts.t -> spec:Plr_gpusim.Spec.t -> n:int -> S.t Signature.t ->
    candidate
  (** The paper's §3 heuristic configuration, evaluated under the model —
      the baseline the tuner is compared against. *)
end
