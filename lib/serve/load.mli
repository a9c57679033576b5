(** Load generators for the serving layer ([plr serve-bench]): a
    closed loop and an open loop.

    {b Closed loop} ({!Make.run}): [clients] generator domains each run
    a think-time-free loop — draw a signature from the mix (Zipf-skewed
    popularity, so a few signatures dominate — the workload shape that
    makes the plan cache pay), draw a request length, submit with a
    per-request deadline, repeat until the wall budget expires.  A
    closed loop measures {e capacity}: arrivals slow down when the
    server does, so its latency percentiles understate what real
    clients would see under overload.

    {b Open loop} ({!Make.run_open}): arrivals follow a fixed schedule
    ({!open_schedule}) at an offered rate, independent of how fast the
    server answers, and every latency is measured from the request's
    {e intended arrival instant} — not from when a generator got around
    to submitting it.  This is the coordinated-omission fix: when the
    server stalls, the requests that should have arrived during the
    stall still count, and their queueing delay lands in the
    percentiles.  Open-loop results also report {e goodput}: completed
    requests that met the SLO, per second.

    Inputs are pre-generated per (signature, length) pair so the loops
    measure the server, not the RNG. *)

type spec = { name : string; weight : float }
(** One mix component and its (unnormalized) Zipf weight. *)

type result = {
  mode : string;  (** ["closed"] or ["open"] *)
  duration : float;  (** wall seconds the loop actually ran *)
  clients : int;
  requests : int;  (** submitted *)
  ok : int;
  rejected : int;
  deadline_missed : int;
  failed : int;
  degraded : int;
  plan_hits : int;
  plan_misses : int;
  throughput : float;  (** completed requests per second *)
  offered_rps : float;  (** open loop: the scheduled arrival rate; else 0 *)
  slo_ms : float option;  (** open loop: the latency SLO; else [None] *)
  under_slo : int;
      (** completions within the SLO, measured from intended arrival
          (closed loop: all completions — no schedule to measure from) *)
  goodput : float;  (** [under_slo / duration], per second *)
  shards : int;  (** server shards ({!Serve.Make.shard_count}) *)
  steals : int;  (** work-stealing executions ({!Metrics.t.steals}) *)
  session_migrations : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
      (** open loop: measured from intended arrival; closed loop: the
          server's submit-to-response histogram *)
  mix : spec list;  (** the signature mix actually used *)
  metrics_json : string;  (** full {!Serve.Make.snapshot_json} export *)
}

val zipf_weights : s:float -> int -> float array
(** [zipf_weights ~s n]: weight [1/(rank+1)^s] for each of [n] ranks —
    rank 0 is the most popular.  [s = 0] is uniform. *)

val open_schedule :
  seed:int ->
  rps:float ->
  seconds:float ->
  nsig:int ->
  nsizes:int ->
  zipf:float ->
  unit ->
  (float * int * int) array
(** The open-loop arrival schedule: [round (rps · seconds)] (at least 1)
    entries [(offset_s, signature_index, size_index)], request [i] due
    at [i/rps] seconds after the run starts, signatures Zipf-drawn and
    sizes uniform from one seeded generator.  A pure function of its
    arguments: the same seed replays the identical workload, which is
    what makes paired A/B serving runs comparable.
    @raise Invalid_argument on [rps <= 0], [nsig <= 0], or
    [nsizes <= 0]. *)

val render : Format.formatter -> result -> unit
(** Human-readable report. *)

val to_json : ?meta:string -> result -> string
(** The BENCH_SERVE.json payload: [{"schema": "plr-serve-bench-2",
    "meta": …, …}].  [meta] is a pre-rendered JSON object (see
    {!Plr_bench.Meta}); omitted when not given. *)

val write_json : path:string -> ?meta:string -> result -> unit

module Make (S : Plr_util.Scalar.S) : sig
  val run :
    ?clients:int ->
    ?seconds:float ->
    ?zipf:float ->
    ?sizes:int array ->
    ?deadline_ms:float ->
    ?seed:int ->
    server:Serve.Make(S).t ->
    (string * S.t Signature.t) list ->
    result
  (** [run ~server mix] drives the closed loop.  [clients] (default 4)
      generator domains; [seconds] (default 2.0) wall budget; [zipf]
      (default 1.1) popularity skew over the mix in the given order;
      [sizes] (default [[| 512; 1024; 4096; 32768 |]]) request lengths,
      drawn uniformly; [deadline_ms] (default 250) per-request deadline;
      [seed] makes the draw sequences reproducible.  The mix must be
      non-empty. *)

  val run_open :
    ?clients:int ->
    ?rps:float ->
    ?seconds:float ->
    ?zipf:float ->
    ?sizes:int array ->
    ?deadline_ms:float ->
    ?slo_ms:float ->
    ?seed:int ->
    server:Serve.Make(S).t ->
    (string * S.t Signature.t) list ->
    result
  (** [run_open ~server mix] drives the open loop against the schedule
      [open_schedule ~seed ~rps ~seconds ~nsig ~nsizes ~zipf ()].
      [clients] (default 4) worker domains share the schedule (they are
      transport, not the arrival process: a late worker submits
      immediately rather than skipping, and the lateness is charged to
      the request); [rps] (default 500) offered arrival rate; [slo_ms]
      (default 50) the goodput SLO; each request's deadline is
      [intended_arrival + deadline_ms].  Latency percentiles and the SLO
      check are measured from intended arrival.  The mix must be
      non-empty and [rps > 0]. *)
end
