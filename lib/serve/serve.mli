(** The concurrent serving layer: many clients, [config.shards]
    independent shards.

    [Serve.Make (S)] turns the existing engines into a multi-client
    service.  The server is an array of {b shards}; each shard owns a
    private domain pool, a plan-cache partition, and an execution queue.
    Requests route to a {b home shard} by a stable FNV-1a hash of their
    canonical cache key (signature × options × scalar), so a signature's
    compiled plans, measured tunings, and JIT kernels concentrate on one
    partition and stay hot.  When a home shard's queue depth reaches
    [config.steal_threshold] and another shard's queue is strictly
    shallower, the pooled execution is {b stolen} by the shallowest
    shard (re-resolving its plan there); sticky sessions are never
    stolen — they move only through the explicit
    {!Make.migrate_session}, which replays state via the checkpoint
    recovery path.  The default [shards = 1] preserves the historical
    single-pool behaviour exactly.

    Each {!Make.submit} call

    + passes {b admission control}: beyond [max_inflight] concurrently
      admitted requests the call is rejected with {!Overloaded} instead
      of queuing without bound;
    + resolves its {b compiled plan} through an LRU {!Plan_cache} keyed
      by canonicalized signature × {!Plr_factors.Opts.t} × scalar domain.
      A hit reuses the compiled {!Plr_factors.Factor_plan}, the
      {!Plr_robust.Stability} verdict, and the tuned chunk-size/backend
      choice; only a miss pays the O(ck²) precomputation;
    + honours its {b deadline}: a request whose absolute deadline passes
      before execution starts is cut with {!Deadline_exceeded} (never
      started, so it cannot occupy the pool);
    + takes the {b backend} the plan entry chose when it was built:
      requests up to the entry's [serial_cutoff] run on the calling
      domain (a ready JIT kernel first, else the serial reference),
      longer ones on the home shard's pool (or a thief's);
    + executes {b guarded} (when [guard] is on): the parallel engine runs
      under {!Plr_robust.Guard} with the cached stability report, so a
      poisoned request degrades to a fallback stage instead of wedging a
      pool worker or returning silent garbage.

    {!Make.submit_scan} requests share that lifecycle — admission,
    deadline, affinity route, retries, metrics — with their own
    evaluators.  Every step feeds the {!Metrics} core;
    {!Make.snapshot_json} exports the counters, latency histograms, and
    per-shard rows in one JSON object.

    Concurrency model: [submit] is safe to call from any number of
    domains.  Requests that need a pool serialize on their shard's exec
    mutex (the wait is recorded as queue time); small requests execute
    on the calling domain and bypass that lock entirely. *)

module Pool = Plr_exec.Pool
module Opts = Plr_factors.Opts
module Stability = Plr_robust.Stability
module Faults = Plr_gpusim.Faults

type error =
  | Overloaded  (** rejected by admission control; retry later *)
  | Deadline_exceeded
      (** deadline passed before execution started, or fired mid-flight
          and cancelled the run at a chunk boundary *)
  | Failed of string  (** engine error, or the guard's last stage failed *)

val error_to_string : error -> string

type breaker_state = Closed | Open | Half_open
(** Per-signature circuit-breaker state: [Closed] counts consecutive
    faulty pooled outcomes, [Open] short-circuits the pooled path to the
    serial backend until the cooldown elapses, [Half_open] admits exactly
    one probe whose outcome closes or re-opens the breaker. *)

val breaker_state_to_string : breaker_state -> string

type config = {
  max_inflight : int;
      (** admission bound: concurrently admitted requests beyond this are
          rejected with {!Overloaded} (default 64) *)
  cache_capacity : int;  (** plan-cache entries (default 64) *)
  chunk_size : int;
      (** serving chunk size; the cached factor plan is compiled once with
          this many factors per list and reused for every request length
          (default 4096) *)
  parallel_threshold : int;
      (** inputs longer than this use the pooled engine; at or below it
          the request solves on the calling domain (default 16384) *)
  guard : bool;
      (** wrap pooled execution in {!Plr_robust.Guard} (default true) *)
  check_prefix : int;
      (** guard reference-prefix length (default 1024) *)
  opts : Opts.t;  (** factor specializations (default {!Opts.all_on}) *)
  retries : int;
      (** bounded retries after a retryable error ({!Overloaded} or
          {!Failed}); 0 disables (default 2) *)
  retry_backoff : float;
      (** base of the exponential backoff between retries, in seconds;
          the delay for attempt [a] is [retry_backoff · 2^a · (0.5 + j)]
          with deterministic jitter [j ∈ \[0, 1)] (default 1 ms) *)
  breaker_threshold : int;
      (** consecutive faulty pooled outcomes that trip the per-signature
          circuit breaker (default 4) *)
  breaker_cooldown : float;
      (** seconds an open breaker short-circuits to the serial backend
          before admitting a half-open probe (default 50 ms) *)
  autotune : bool;
      (** run a bounded measured {!Plr_core.Tune.Cpu} search on a
          plan-cache miss with no cached tuning, persisting the winner
          in the process-wide {!Plr_core.Tune.Registry}; off by default
          (the heuristics — or a previously cached tuning — are used
          instead).  Tunings only reshape the schedule, never the
          computed values. *)
  tune_budget : int;
      (** candidate configurations an autotune search may measure
          (default 8) *)
  shards : int;
      (** independent shards (pool + plan-cache partition + queue) the
          server runs; 1 (the default) shares the registry pool and
          keeps the historical single-pool behaviour, [> 1] creates
          that many private pools owned by the server (close them with
          {!Make.shutdown}) *)
  steal_threshold : int;
      (** home-shard queue depth at which a pooled request may be
          stolen by the shallowest strictly-shallower shard (default
          2); irrelevant when [shards = 1] *)
}

val default_config : config

module Make (S : Plr_util.Scalar.S) : sig
  type t

  type entry = {
    stability : Stability.report;
    plan : Plr_factors.Factor_plan.Make(S).t;
        (** compiled with [max config.chunk_size tuning.chunk_size]
            factors per list, so applying the tuning never recompiles *)
    serial_cutoff : int;
        (** request lengths at or below this execute on the calling
            domain — the cached backend choice ([max_int] when the
            stability verdict predicts the parallel path is doomed) *)
    tuning : Plr_core.Tune.cpu_tuning;
        (** the schedule knobs pooled execution uses: a cached or
            freshly searched measured tuning, else the serving
            defaults *)
    tuning_source : Plr_core.Tune.cpu_source;
    jit : Plr_jit.Backend.Make(S).t option;
        (** the per-signature native kernel, compiling asynchronously
            off the same plan; [None] when the JIT is disabled, the
            scalar is unsupported, or no C toolchain exists.  Dispatch
            treats it as opportunistic: any non-ready state falls back
            to the portable backends (counted by
            {!Metrics.t.jit_fallback}). *)
  }

  val create : ?config:config -> ?pool:Pool.t -> ?domains:int -> unit -> t
  (** With [config.shards = 1] (the default), [pool] defaults to the
      {!Pool.get} registry pool for [domains].  With [config.shards > 1]
      the server creates one private [domains]-sized pool per shard and
      owns them — call {!shutdown} when done.
      @raise Invalid_argument if [pool] is given alongside
      [config.shards > 1] (one shared pool contradicts sharding). *)

  val shutdown : t -> unit
  (** Close the shard pools this server created ([config.shards > 1]).
      A no-op on servers sharing the registry pool or a caller's pool.
      The server must be idle; submitting after shutdown is an error. *)

  val config : t -> config
  val pool : t -> Pool.t
  (** Shard 0's pool (the only pool when [shards = 1]). *)

  val metrics : t -> Metrics.t

  val shard_count : t -> int
  (** [max 1 config.shards]. *)

  val shard_of_signature : t -> S.t Signature.t -> int
  (** The signature's home shard index under affinity routing — stable
      across processes (FNV-1a of the canonical cache key). *)

  type shard_stat = {
    shard : int;  (** shard index *)
    pool_size : int;
    depth : int;  (** pooled requests queued or executing right now *)
    st_routed : int;  (** requests whose affinity home is this shard *)
    st_completed : int;  (** requests whose final [Ok] executed here *)
    st_pooled_home : int;  (** pooled executions that stayed home *)
    st_steals_in : int;  (** pooled executions stolen {e to} this shard *)
    st_steals_out : int;  (** pooled executions stolen {e from} it *)
    st_migrations_in : int;  (** sessions migrated onto this shard *)
    st_plan_hits : int;  (** this partition's plan-cache hits *)
    st_plan_misses : int;
  }

  val shard_stats : t -> shard_stat array
  (** One row per shard.  Invariants under a quiescent server:
      [Σ st_routed] = submissions minus malformed scans, [Σ st_completed] =
      {!Metrics.t.completed}, and [Σ st_steals_in = Σ st_steals_out =]
      {!Metrics.t.steals}. *)


  val cache_key : t -> S.t Signature.t -> string
  (** The canonical cache key: scalar domain, factor options, and the
      signature's coefficients rendered canonically. *)

  val plan_for : ?n:int -> t -> S.t Signature.t -> entry * bool
  (** [(entry, hit)]: the cached (or freshly compiled) plan entry for
      this signature.  Exposed for tests and warm-up; [submit] calls it
      on every request.  [n] (default just past the parallel threshold)
      sizes the tuning lookup on a miss; hits return the entry — and
      the tuning — compiled for the first request's length. *)

  val submit :
    ?deadline:float -> ?faults:Faults.plan -> t -> S.t Signature.t ->
    S.t array -> (S.t array, error) result
  (** Serve one request.  [deadline] is an absolute [Unix.gettimeofday]
      instant, enforced both before execution starts and — through a
      cooperative cancellation token polled at chunk boundaries — while
      the pooled engine runs.  On [Ok y], [y] is the full recurrence
      output, identical to the serial reference (bitwise for integer
      scalars; within the guard's tolerance for floating ones, and
      bitwise on every path that does not degrade).

      Retryable errors ({!Overloaded}, {!Failed}) are retried up to
      [config.retries] times with exponential backoff and deterministic
      jitter; a passed deadline stops retrying.  [faults] injects a
      deterministic engine fault plan into the pooled path (the chaos
      harness's front door); it models a transient fault and applies to
      the first attempt only. *)

  val breaker_state : t -> S.t Signature.t -> breaker_state
  (** The signature's circuit-breaker state right now. *)

  val cache_stats : t -> int * int * int
  (** [(hits, misses, evictions)] of the plan cache. *)

  val snapshot_json : t -> string
  (** {!Metrics.snapshot_json} with the per-shard stat rows (pool size,
      queue depth, steals in/out, migrations, affinity hit rate) and the
      most recently applied schedule tuning (with its source)
      included. *)

  module Session : module type of Session.Make (S)

  val session : ?checkpoint_every:int -> t -> S.t Signature.t -> Session.t
  (** A sticky streaming session on the signature's home shard (the
      server's pool, options, and metrics) — see
      {!Session.Make.create}. *)

  val migrate_session : t -> Session.t -> shard:int -> unit
  (** Explicitly move a sticky session to [shard]'s pool — the only way
      session state changes shards (work stealing skips sessions).  The
      move reuses the recovery path (checkpoint restore + journal replay
      on the destination pool), so it is state-preserving by
      construction: outputs after the move are bitwise what they would
      have been without it.  A no-op when the session is already there.
      @raise Invalid_argument on an out-of-range shard index. *)

  val submit_scan :
    ?deadline:float -> t -> S.t array -> S.t array -> (S.t array, error) result
  (** [submit_scan t a b] serves one time-varying recurrence request
      [y[i] = a[i]*y[i-1] + b[i]] through {!Plr_scan.Scan}.  The request
      lifecycle mirrors {!submit}: admission control against
      [config.max_inflight], deadlines enforced before execution and
      mid-flight at chunk boundaries, retries with deterministic backoff,
      the shared latency histograms, and per-kind attribution in the
      metrics snapshot ({!Metrics.t.scan_submitted} etc.).  Requests
      route on the scalar and the power-of-two length bucket.  Requests
      at or below [config.parallel_threshold] evaluate serially on the
      calling domain; larger ones run the pooled look-back engine with
      the bucket's schedule on the executing shard's pool, and an
      engine-detected carry fault degrades — loudly, counted in
      {!Metrics.t.degraded} — to the serial evaluator.  Streams of
      different lengths fail with {!Failed} without being routed. *)
end
