(** Toggles for the domain-specific optimizations of paper §3.1.  Figure 10
    compares all-on against all-off (factors always loaded from global
    memory, no specialized code).

    This lives in [Plr_factors] so the backend-agnostic factor compiler and
    every backend share one option type; [Plr_core.Opts] re-exports it. *)

type t = {
  cache_factors_in_shared : bool;
      (** buffer the first 1024 factors of each list in shared memory *)
  specialize_all_equal : bool;
      (** replace a factor array whose entries are all identical by a
          constant (standard prefix sum) *)
  specialize_zero_one : bool;
      (** conditionally add instead of multiply-add when every factor is 0
          or 1 (tuple-based prefix sums) *)
  compress_repeating : bool;
      (** store only the first period of a repeating factor list *)
  flush_denormals : bool;
      (** flush denormal factors to zero during precomputation and suppress
          all correction work past the point where every list is zero
          (recursive filters); lets later warps skip Phase 1 *)
  shared_cache_budget : int;
      (** how many factors per list to buffer in shared memory; the paper
          uses 1024 and lists "buffer more than 1024 elements" as future
          work (§3.1, §6.1.3) — larger budgets are exercised by the
          ablation bench.  The plan clamps the budget to the block's
          shared-memory capacity. *)
}

val all_on : t
val all_off : t

val with_cache_budget : t -> int -> t
(** Same toggles with a different shared-memory factor budget. *)

val pp : Format.formatter -> t -> unit
(** Comma-separated list of the enabled optimizations; the shared-cache
    flag carries its budget (e.g. [shared-cache=1024]).  This rendering
    feeds plan-cache keys. *)
