(** Cheap, lock-free metrics for the serving layer.

    Counters are single atomics; histograms are fixed arrays of atomic
    bucket counters over log2-spaced latency bounds, so [observe] is a
    couple of atomic increments on the request hot path — no allocation,
    no locking, safe from any domain.  Snapshots are read with plain
    atomic loads and are therefore only instantaneously consistent, which
    is all a monitoring export needs. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Histogram : sig
  type t

  val create : unit -> t
  (** Buckets are powers of two of a microsecond: the first upper bound
      is 1us, the last finite bound is [2^25]us (≈ 34 s); anything slower
      lands in a final overflow bucket. *)

  val observe : t -> float -> unit
  (** Record one latency, in seconds. *)

  val count : t -> int
  (** Observations so far. *)

  val mean : t -> float
  (** Mean of the exact observed values (tracked separately from the
      buckets), in seconds.  0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile h q] for [q] in [0, 1]: the upper bound, in seconds, of
      the first bucket at which the cumulative count reaches [q] of the
      total — i.e. a conservative (rounded-up) quantile.  0 when empty. *)

  val to_json : t -> string
  (** [{"count": …, "mean_ms": …, "p50_ms": …, "p95_ms": …, "p99_ms": …,
      "buckets": [[upper_bound_ms, count], …]}] with zero-count buckets
      omitted. *)
end

type t = {
  submitted : Counter.t;      (** requests entering {!Serve.Make.submit} *)
  completed : Counter.t;      (** requests that returned [Ok] *)
  rejected : Counter.t;       (** admission-control [Overloaded] rejections *)
  deadline_missed : Counter.t;(** requests cut by their deadline *)
  degraded : Counter.t;       (** guard accepted a fallback stage's output *)
  failed : Counter.t;         (** engine errors / guard gave up *)
  retries : Counter.t;        (** retry attempts after a retryable error *)
  cancelled_midflight : Counter.t;
      (** pooled executions aborted at a chunk boundary by a deadline that
          fired after the run started *)
  breaker_trips : Counter.t;  (** circuit-breaker transitions to open *)
  breaker_shorted : Counter.t;
      (** requests short-circuited to the serial backend by an open
          breaker *)
  plan_hits : Counter.t;      (** plan-cache lookups served from cache *)
  plan_misses : Counter.t;    (** lookups that compiled a fresh plan *)
  jit_used : Counter.t;
      (** executions answered by the native JIT kernel *)
  jit_fallback : Counter.t;
      (** executions where a compiled entry's JIT declined (still
          building, build failed, poisoned) and the portable backend
          answered instead *)
  session_checkpoints : Counter.t; (** session state snapshots taken *)
  session_recoveries : Counter.t;  (** session checkpoint restorations *)
  session_fastforwards : Counter.t;
      (** companion-matrix skip-aheads (gap processing and recovery) *)
  session_migrations : Counter.t;
      (** sticky sessions moved to another shard's pool (checkpoint +
          journal replay on the destination) *)
  steals : Counter.t;
      (** pooled requests executed on a shard other than their affinity
          home because the home queue exceeded the steal threshold *)
  scan_submitted : Counter.t;
      (** time-varying scan requests entering {!Serve.Make.submit_scan};
          also counted in [submitted], so the constant-coefficient share
          is the difference *)
  scan_completed : Counter.t; (** scan requests that returned [Ok] *)
  scan_failed : Counter.t;    (** scan requests that returned [Failed] *)
  queue_wait : Histogram.t;
      (** admission to execution start, once per attempt: the wait for
          the shard's exec lock after the route decision on the pooled
          path, 0 on the calling domain *)
  plan_build : Histogram.t;   (** plan-cache miss fill time *)
  exec : Histogram.t;         (** backend execution time *)
  total : Histogram.t;        (** submit to response, the client view *)
}

val create : unit -> t

val snapshot_json : ?shards:string -> t -> string
(** One JSON object with every counter, every histogram, and a
    ["kinds"] block attributing submitted/completed/failed to the
    request kind (["recurrence"] = the all-kinds totals minus the scan
    share, ["scan"] = the scan_* counters).  [shards] (when non-empty)
    is a pre-rendered JSON array of per-shard stat objects (pool size,
    queue depth, steals in/out, migrations, affinity hit rate — see
    {!Serve.Make.shard_stats}) echoed as a ["shards"] field.  When the
    {!Plr_trace.Trace} sink is enabled the snapshot also carries a
    ["trace"] block: total recorded events, events dropped to full
    rings, and the top spans by inclusive time as produced by
    {!Plr_trace.Report.to_json}. *)
