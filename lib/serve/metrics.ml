module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let incr = Atomic.incr
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get = Atomic.get
end

module Histogram = struct
  (* Upper bounds are 2^i microseconds for i in [0, 25], plus one
     overflow bucket: 27 buckets cover 1us .. 34s, which brackets any
     latency a request through the pool can see.  The exact sum is kept
     in nanoseconds in an int atomic (63-bit: ~292 years of latency), so
     [mean] does not suffer bucket quantization. *)
  let finite_buckets = 26

  type t = {
    buckets : int Atomic.t array; (* finite_buckets + 1, last = overflow *)
    sum_ns : int Atomic.t;
    observations : int Atomic.t;
  }

  let create () =
    {
      buckets = Array.init (finite_buckets + 1) (fun _ -> Atomic.make 0);
      sum_ns = Atomic.make 0;
      observations = Atomic.make 0;
    }

  let bound_us i = 1 lsl i
  let bound_s i = float_of_int (bound_us i) *. 1e-6

  let bucket_of seconds =
    let us = seconds *. 1e6 in
    let rec find i =
      if i >= finite_buckets then finite_buckets
      else if us <= float_of_int (bound_us i) then i
      else find (i + 1)
    in
    find 0

  let observe t seconds =
    let seconds = if Float.is_finite seconds then Float.max 0.0 seconds else 0.0 in
    Atomic.incr t.buckets.(bucket_of seconds);
    ignore (Atomic.fetch_and_add t.sum_ns (int_of_float (seconds *. 1e9)));
    Atomic.incr t.observations

  let count t = Atomic.get t.observations

  let mean t =
    let n = count t in
    if n = 0 then 0.0 else float_of_int (Atomic.get t.sum_ns) *. 1e-9 /. float_of_int n

  let percentile t q =
    let n = count t in
    if n = 0 then 0.0
    else begin
      let need = Float.max 1.0 (Float.of_int n *. Float.min 1.0 (Float.max 0.0 q)) in
      let acc = ref 0 in
      let result = ref (bound_s (finite_buckets - 1)) in
      (try
         Array.iteri
           (fun i b ->
             acc := !acc + Atomic.get b;
             if float_of_int !acc >= need then begin
               (* the overflow bucket reports the last finite bound *)
               result := bound_s (min i (finite_buckets - 1));
               raise Exit
             end)
           t.buckets
       with Exit -> ());
      !result
    end

  let json_ms v = Printf.sprintf "%.6g" (v *. 1e3)

  let to_json t =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf
         "{ \"count\": %d, \"mean_ms\": %s, \"p50_ms\": %s, \"p95_ms\": %s, \
          \"p99_ms\": %s, \"buckets\": ["
         (count t) (json_ms (mean t))
         (json_ms (percentile t 0.50))
         (json_ms (percentile t 0.95))
         (json_ms (percentile t 0.99)));
    let first = ref true in
    Array.iteri
      (fun i bk ->
        let c = Atomic.get bk in
        if c > 0 then begin
          if not !first then Buffer.add_string b ", ";
          first := false;
          Buffer.add_string b
            (Printf.sprintf "[%s, %d]"
               (json_ms (bound_s (min i (finite_buckets - 1))))
               c)
        end)
      t.buckets;
    Buffer.add_string b "] }";
    Buffer.contents b
end

type t = {
  submitted : Counter.t;
  completed : Counter.t;
  rejected : Counter.t;
  deadline_missed : Counter.t;
  degraded : Counter.t;
  failed : Counter.t;
  retries : Counter.t;
  cancelled_midflight : Counter.t;
  breaker_trips : Counter.t;
  breaker_shorted : Counter.t;
  plan_hits : Counter.t;
  plan_misses : Counter.t;
  tune_searched : Counter.t;
  tune_cached : Counter.t;
  tune_heuristic : Counter.t;
  jit_used : Counter.t;
  jit_fallback : Counter.t;
  session_checkpoints : Counter.t;
  session_recoveries : Counter.t;
  session_fastforwards : Counter.t;
  session_migrations : Counter.t;
  steals : Counter.t;
  (* Per-request-kind attribution.  [submitted]/[completed]/[failed]
     above stay the all-kinds totals (existing dashboards keep working);
     the scan_* counters carve out the time-varying scan share, and the
     snapshot derives the constant-coefficient share by subtraction. *)
  scan_submitted : Counter.t;
  scan_completed : Counter.t;
  scan_failed : Counter.t;
  queue_wait : Histogram.t;
  plan_build : Histogram.t;
  exec : Histogram.t;
  total : Histogram.t;
}

let create () =
  {
    submitted = Counter.create ();
    completed = Counter.create ();
    rejected = Counter.create ();
    deadline_missed = Counter.create ();
    degraded = Counter.create ();
    failed = Counter.create ();
    retries = Counter.create ();
    cancelled_midflight = Counter.create ();
    breaker_trips = Counter.create ();
    breaker_shorted = Counter.create ();
    plan_hits = Counter.create ();
    plan_misses = Counter.create ();
    tune_searched = Counter.create ();
    tune_cached = Counter.create ();
    tune_heuristic = Counter.create ();
    jit_used = Counter.create ();
    jit_fallback = Counter.create ();
    session_checkpoints = Counter.create ();
    session_recoveries = Counter.create ();
    session_fastforwards = Counter.create ();
    session_migrations = Counter.create ();
    steals = Counter.create ();
    scan_submitted = Counter.create ();
    scan_completed = Counter.create ();
    scan_failed = Counter.create ();
    queue_wait = Histogram.create ();
    plan_build = Histogram.create ();
    exec = Histogram.create ();
    total = Histogram.create ();
  }

let snapshot_json ?tuning ?shards t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  let counter name c = Printf.sprintf "  \"%s\": %d" name (Counter.get c) in
  let histogram name h = Printf.sprintf "  \"%s\": %s" name (Histogram.to_json h) in
  let fields =
    [
      counter "submitted" t.submitted;
      counter "completed" t.completed;
      counter "rejected_overloaded" t.rejected;
      counter "deadline_missed" t.deadline_missed;
      counter "degraded" t.degraded;
      counter "failed" t.failed;
      counter "retries" t.retries;
      counter "cancelled_midflight" t.cancelled_midflight;
      counter "breaker_trips" t.breaker_trips;
      counter "breaker_shorted" t.breaker_shorted;
      counter "plan_cache_hits" t.plan_hits;
      counter "plan_cache_misses" t.plan_misses;
      counter "tune_searched" t.tune_searched;
      counter "tune_cached" t.tune_cached;
      counter "tune_heuristic" t.tune_heuristic;
      counter "jit_used" t.jit_used;
      counter "jit_fallback" t.jit_fallback;
      counter "session_checkpoints" t.session_checkpoints;
      counter "session_recoveries" t.session_recoveries;
      counter "session_fastforwards" t.session_fastforwards;
      counter "session_migrations" t.session_migrations;
      counter "steals" t.steals;
      (let ssub = Counter.get t.scan_submitted
       and scomp = Counter.get t.scan_completed
       and sfail = Counter.get t.scan_failed in
       Printf.sprintf
         "  \"kinds\": { \"recurrence\": { \"submitted\": %d, \
          \"completed\": %d, \"failed\": %d }, \"scan\": { \"submitted\": \
          %d, \"completed\": %d, \"failed\": %d } }"
         (Counter.get t.submitted - ssub)
         (Counter.get t.completed - scomp)
         (Counter.get t.failed - sfail)
         ssub scomp sfail);
      histogram "queue_wait" t.queue_wait;
      histogram "plan_build" t.plan_build;
      histogram "exec" t.exec;
      histogram "total" t.total;
    ]
    @ (match tuning with
      | None | Some "" -> []
      | Some s -> [ Printf.sprintf "  \"tuning\": %S" s ])
    @ (match shards with
      | None | Some "" -> []
      | Some s -> [ Printf.sprintf "  \"shards\": %s" s ])
    @
    (* When the trace sink is live, summarize it: event volume, loss, and
       the top spans by inclusive time (same aggregation as [plr trace]). *)
    if not (Plr_trace.Trace.enabled ()) then []
    else begin
      let events = Plr_trace.Trace.collect () in
      let rows = Plr_trace.Report.rows events in
      [
        Printf.sprintf
          "  \"trace\": { \"events\": %d, \"dropped\": %d, \"spans\": %s }"
          (List.length events)
          (Plr_trace.Trace.dropped ())
          (Plr_trace.Report.to_json ~top:8 rows);
      ]
    end
  in
  Buffer.add_string b (String.concat ",\n" fields);
  Buffer.add_string b "\n}";
  Buffer.contents b
