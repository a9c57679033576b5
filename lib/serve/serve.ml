module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Trace = Plr_trace.Trace
module Opts = Plr_factors.Opts
module Stability = Plr_robust.Stability
module Guard = Plr_robust.Guard
module Faults = Plr_gpusim.Faults

type error = Overloaded | Deadline_exceeded | Failed of string

let error_to_string = function
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline exceeded"
  | Failed m -> "failed: " ^ m

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  max_inflight : int;
  cache_capacity : int;
  chunk_size : int;
  parallel_threshold : int;
  guard : bool;
  check_prefix : int;
  opts : Opts.t;
  retries : int;
  retry_backoff : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  shards : int;
  steal_threshold : int;
}

let default_config =
  {
    max_inflight = 64;
    cache_capacity = 64;
    chunk_size = 4096;
    parallel_threshold = 16384;
    guard = true;
    check_prefix = 1024;
    opts = Opts.all_on;
    retries = 2;
    retry_backoff = 1e-3;
    breaker_threshold = 4;
    breaker_cooldown = 5e-2;
    shards = 1;
    steal_threshold = 2;
  }

(* Signature-affinity routing wants the same key to land on the same
   shard in every process (tests, replays, paired runs), so the router
   hashes the canonical cache-key string itself with FNV-1a rather than
   relying on [Hashtbl.hash]'s unspecified mixing. *)
let fnv1a s =
  (* The 64-bit offset basis, assembled in halves: the literal itself
     does not fit OCaml's 63-bit int.  Wrap-around on the multiply is
     fine — the hash only needs determinism, not the exact FNV value. *)
  let h = ref ((0xcbf29ce4 lsl 32) lor 0x84222325) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let now () = Unix.gettimeofday ()

module Make (S : Plr_util.Scalar.S) = struct
  module FP = Plr_factors.Factor_plan.Make (S)
  module Serial = Plr_serial.Serial.Make (S)
  module G = Guard.Make (S)
  module Session = Session.Make (S)
  module Sc = Plr_scan.Scan.Make (S)

  type entry = {
    stability : Stability.report;
    plan : FP.t;
    serial_cutoff : int;
    jit : G.JB.t option;
  }

  (* Per-signature circuit breaker.  [Closed] counts consecutive faulty
     pooled outcomes (guard degradations and failures); at the threshold
     it opens and pooled-path requests short-circuit to the serial
     backend until the cooldown elapses, when a single half-open probe is
     let through — success closes the breaker, failure re-opens it. *)
  type breaker = {
    mutable consecutive : int;
    mutable bstate : [ `Closed | `Open of float (* retry-at *) | `Half_open ];
  }

  (* One shard: a private pool, a plan-cache partition (compiled
     factor plans and JIT state stay hot per shard), its own
     exec lock, and the queue-depth signal the router and the stealing
     policy read.  The remaining fields are bookkeeping counters for the
     per-shard metrics export. *)
  type shard = {
    sindex : int;
    spool : Pool.t;
    scache : entry Plan_cache.t;
    sexec_lock : Mutex.t; (* serializes jobs that occupy this shard's pool *)
    queue_depth : int Atomic.t;
        (* pooled requests queued on or holding [sexec_lock] right now *)
    routed : int Atomic.t; (* requests whose affinity home is this shard *)
    completed_on : int Atomic.t; (* requests whose final [Ok] ran here *)
    pooled_home : int Atomic.t; (* pooled executions that stayed home *)
    steals_in : int Atomic.t;
    steals_out : int Atomic.t;
    migrations_in : int Atomic.t;
  }

  type t = {
    config : config;
    shards_ : shard array; (* length [max 1 config.shards] *)
    owned_pools : bool;
        (* true when [create] built the shard pools itself (shards > 1)
           and [shutdown] should close them *)
    metrics : Metrics.t;
    inflight : int Atomic.t;
    breaker_lock : Mutex.t;
    breakers : (string, breaker) Hashtbl.t;
    key_prefix : string; (* the cache key's scalar and options part *)
  }

  let make_shard ~config sindex spool =
    {
      sindex;
      spool;
      scache = Plan_cache.create ~capacity:config.cache_capacity ();
      sexec_lock = Mutex.create ();
      queue_depth = Atomic.make 0;
      routed = Atomic.make 0;
      completed_on = Atomic.make 0;
      pooled_home = Atomic.make 0;
      steals_in = Atomic.make 0;
      steals_out = Atomic.make 0;
      migrations_in = Atomic.make 0;
    }

  let create ?(config = default_config) ?pool ?domains () =
    let nshards = max 1 config.shards in
    let shards_, owned_pools =
      if nshards = 1 then
        (* The single-shard server keeps the historical behaviour: share
           the process-wide registry pool (or the caller's). *)
        let p = match pool with Some p -> p | None -> Pool.get ?domains () in
        ([| make_shard ~config 0 p |], false)
      else begin
        (* N shards need N disjoint pools; the size-keyed [Pool.get]
           registry would alias them into one.  The server creates (and
           owns) private pools — [shutdown] closes them. *)
        if pool <> None then
          invalid_arg "Serve.create: ?pool cannot be shared across shards > 1";
        ( Array.init nshards (fun i ->
              make_shard ~config i (Pool.create ?domains ())),
          true )
      end
    in
    {
      config;
      shards_;
      owned_pools;
      metrics = Metrics.create ();
      inflight = Atomic.make 0;
      breaker_lock = Mutex.create ();
      breakers = Hashtbl.create 16;
      key_prefix = Format.asprintf "%s|%a|" S.ctype Opts.pp config.opts;
    }

  let config t = t.config
  let pool t = t.shards_.(0).spool
  let metrics t = t.metrics
  let shard_count t = Array.length t.shards_

  let shutdown t =
    if t.owned_pools then
      Array.iter (fun sh -> Pool.shutdown sh.spool) t.shards_

  let cache_stats t =
    Array.fold_left
      (fun (h, m, e) sh ->
        ( h + Plan_cache.hits sh.scache,
          m + Plan_cache.misses sh.scache,
          e + Plan_cache.evictions sh.scache ))
      (0, 0, 0) t.shards_

  type shard_stat = {
    shard : int;
    pool_size : int;
    depth : int;
    st_routed : int;
    st_completed : int;
    st_pooled_home : int;
    st_steals_in : int;
    st_steals_out : int;
    st_migrations_in : int;
    st_plan_hits : int;
    st_plan_misses : int;
  }

  let shard_stats t =
    Array.map
      (fun sh ->
        {
          shard = sh.sindex;
          pool_size = Pool.size sh.spool;
          depth = Atomic.get sh.queue_depth;
          st_routed = Atomic.get sh.routed;
          st_completed = Atomic.get sh.completed_on;
          st_pooled_home = Atomic.get sh.pooled_home;
          st_steals_in = Atomic.get sh.steals_in;
          st_steals_out = Atomic.get sh.steals_out;
          st_migrations_in = Atomic.get sh.migrations_in;
          st_plan_hits = Plan_cache.hits sh.scache;
          st_plan_misses = Plan_cache.misses sh.scache;
        })
      t.shards_

  let shards_json t =
    let one st =
      (* Affinity hit rate: pooled executions that ran on their home
         shard, over all pooled executions routed there. *)
      let pooled = st.st_pooled_home + st.st_steals_out in
      let affinity =
        if pooled = 0 then 1.0
        else float_of_int st.st_pooled_home /. float_of_int pooled
      in
      Printf.sprintf
        "{ \"shard\": %d, \"pool_size\": %d, \"queue_depth\": %d, \
         \"routed\": %d, \"completed_on\": %d, \"pooled_home\": %d, \
         \"steals_in\": %d, \"steals_out\": %d, \"migrations_in\": %d, \
         \"affinity_hit_rate\": %.4g, \"plan_hits\": %d, \"plan_misses\": %d }"
        st.shard st.pool_size st.depth st.st_routed st.st_completed
        st.st_pooled_home st.st_steals_in st.st_steals_out
        st.st_migrations_in affinity st.st_plan_hits st.st_plan_misses
    in
    Printf.sprintf "[ %s ]"
      (String.concat ", " (Array.to_list (Array.map one (shard_stats t))))

  let snapshot_json t = Metrics.snapshot_json ~shards:(shards_json t) t.metrics

  let floating = S.kind = Plr_util.Scalar.Floating

  (* The canonical key: scalar domain × opts × signature.  [Opts.pp] and
     [Signature.to_string] are both deterministic renderings, so equal
     configurations collide exactly.  The first two parts are rendered
     once per server. *)
  let cache_key t (s : S.t Signature.t) =
    t.key_prefix ^ Signature.to_string S.to_string s

  (* Affinity routing: the canonical key string hashes to a home shard,
     so a signature's plans and JIT state concentrate on one
     partition and every process routes identically. *)
  let home_shard t key = t.shards_.(fnv1a key mod Array.length t.shards_)
  let shard_of_signature t s = (home_shard t (cache_key t s)).sindex

  (* The shard that runs a pooled execution, with the routing outcome
     counted.  Stealing is bounded and one-hop: only when the home queue
     is at or over the threshold, and only to the shallowest
     strictly-shallower shard.  Sticky sessions are exempt — they move
     via [migrate_session] only. *)
  let exec_shard t home =
    let best = ref home and best_depth = ref (Atomic.get home.queue_depth) in
    if !best_depth >= t.config.steal_threshold then
      Array.iter
        (fun sh ->
          let d = Atomic.get sh.queue_depth in
          if d < !best_depth then begin
            best := sh;
            best_depth := d
          end)
        t.shards_;
    let sh = !best in
    if sh != home then begin
      Metrics.Counter.incr t.metrics.Metrics.steals;
      Atomic.incr home.steals_out;
      Atomic.incr sh.steals_in;
      Trace.instant Trace.Serve "serve.steal" home.sindex sh.sindex
    end
    else Atomic.incr home.pooled_home;
    sh

  let compile_entry t (s : S.t Signature.t) =
    let cfg = t.config in
    let k = Signature.order s in
    let stability = Stability.analyze (Signature.map S.to_float s) in
    (* The plan covers the serving chunk size, the one every pooled run
       uses, so [Multicore.run] never recompiles it. *)
    let m = max (max 1 k) cfg.chunk_size in
    let plan =
      FP.of_feedback ~opts:cfg.opts
        ~max_period:Plr_multicore.Multicore.cpu_max_period
        ~feedback:s.Signature.feedback ~m ()
    in
    (* The cached backend choice: a signature whose factors provably
       overflow this scalar's float width gains nothing from the pooled
       path (the guard would skip or degrade it) — pin it to the calling
       domain. *)
    let overflow =
      if S.bytes <= 4 then stability.Stability.overflow_f32
      else stability.Stability.overflow_f64
    in
    let doomed =
      floating
      && stability.Stability.cls = Stability.Unstable
      && overflow <> None
    in
    let serial_cutoff = if doomed then max_int else cfg.parallel_threshold in
    (* The native kernel compiles in the background off the same plan;
       until (unless) it is ready and verified, every dispatch below
       falls through to the portable backends.  [prepare] is [None] —
       and has already traced why — when the JIT is disabled, the
       scalar is unsupported, or no C toolchain exists. *)
    let jit = G.JB.prepare ~mode:`Async ~fplan:plan s in
    { stability; plan; serial_cutoff; jit }

  let plan_on t sh key s =
    match Plan_cache.find sh.scache key with
    | Some e ->
        Metrics.Counter.incr t.metrics.Metrics.plan_hits;
        (e, true)
    | None ->
        Metrics.Counter.incr t.metrics.Metrics.plan_misses;
        let t0 = now () in
        let e = compile_entry t s in
        Metrics.Histogram.observe t.metrics.Metrics.plan_build (now () -. t0);
        Plan_cache.add sh.scache key e;
        (e, false)

  let plan_for ?n:_ t s =
    let key = cache_key t s in
    plan_on t (home_shard t key) key s

  let deadline_passed = function
    | None -> false
    | Some d -> now () > d

  (* -------------------------------------------------- circuit breaker *)

  let breaker_for t key =
    Mutex.lock t.breaker_lock;
    let b =
      match Hashtbl.find_opt t.breakers key with
      | Some b -> b
      | None ->
          let b = { consecutive = 0; bstate = `Closed } in
          Hashtbl.add t.breakers key b;
          b
    in
    Mutex.unlock t.breaker_lock;
    b

  let breaker_state t s =
    let b = breaker_for t (cache_key t s) in
    Mutex.lock t.breaker_lock;
    let s =
      match b.bstate with
      | `Closed -> Closed
      | `Open _ -> Open
      | `Half_open -> Half_open
    in
    Mutex.unlock t.breaker_lock;
    s

  (* Route decision for a pooled-path request: [`Pooled] while closed,
     [`Serial] while open (and while another request's half-open probe is
     in flight), [`Pooled] again for the single probe that finds the
     cooldown expired. *)
  let breaker_route t key =
    let b = breaker_for t key in
    Mutex.lock t.breaker_lock;
    let r =
      match b.bstate with
      | `Closed -> `Pooled
      | `Half_open -> `Serial
      | `Open retry_at ->
          if now () >= retry_at then begin
            b.bstate <- `Half_open;
            `Pooled
          end
          else `Serial
    in
    Mutex.unlock t.breaker_lock;
    r

  let trip t b =
    b.bstate <- `Open (now () +. t.config.breaker_cooldown);
    Metrics.Counter.incr t.metrics.Metrics.breaker_trips;
    Trace.instant Trace.Serve "breaker.trip" b.consecutive 0

  (* Fold a pooled outcome into the breaker.  A deadline cut is not an
     engine verdict and never reaches it. *)
  let breaker_report t key verdict =
    let b = breaker_for t key in
    Mutex.lock t.breaker_lock;
    (match (b.bstate, verdict) with
    | `Half_open, `Clean ->
        b.bstate <- `Closed;
        b.consecutive <- 0
    | `Half_open, `Faulty ->
        b.consecutive <- b.consecutive + 1;
        trip t b
    | `Closed, `Clean -> b.consecutive <- 0
    | `Closed, `Faulty ->
        b.consecutive <- b.consecutive + 1;
        if b.consecutive >= t.config.breaker_threshold then trip t b
    | `Open _, _ -> ());
    Mutex.unlock t.breaker_lock

  (* ------------------------------------------------------- execution *)

  (* With [guard] on, a non-finite floating output fails the request.
     Every output that does not run under {!Guard} passes through here. *)
  let finite t y =
    match if t.config.guard then G.scan_non_finite y else None with
    | None -> Ok y
    | Some index ->
        Error (Failed (Guard.violation_to_string (Guard.Non_finite { index })))

  (* The fastest OCaml serial evaluator: the flat kernel into a fresh
     output, bitwise [Serial.full]. *)
  let serial s x =
    let y = Array.make (Array.length x) S.zero in
    Serial.full_into s ~src:x ~dst:y;
    y

  (* A ready JIT kernel answers first: its output is verified
     bitwise-identical to [Serial.full] until a use validates it. *)
  let try_jit t jit x =
    match jit with
    | None -> None
    | Some jb -> (
        match G.JB.run jb x with
        | Some y ->
            Metrics.Counter.incr t.metrics.Metrics.jit_used;
            Some y
        | None ->
            Metrics.Counter.incr t.metrics.Metrics.jit_fallback;
            None)

  let last_violation (o : G.outcome) =
    let rec last acc = function
      | [] -> acc
      | (a : Guard.attempt) :: rest ->
          last (match a.Guard.violation with Some v -> Some v | None -> acc) rest
    in
    match last None o.G.attempts with
    | Some v -> Guard.violation_to_string v
    | None -> "rejected"

  (* Execution above [serial_cutoff]: a ready kernel answers first and
     [fallback] otherwise, under the guard's check ladder when [guard] is
     on.  The breaker hears [`Clean] for an undegraded success and
     [`Faulty] for a degradation or failure.  A mid-flight cancellation
     escapes as [Cancel.Cancelled] and never reaches it. *)
  let guarded t key entry ~jit ~fallback s x =
    let cfg = t.config in
    (* Inlined rather than [G.jit_runner] so the serving metrics see
       which branch ran. *)
    let runner sg input =
      match try_jit t jit input with Some y -> y | None -> fallback sg input
    in
    let r, verdict =
      if cfg.guard then begin
        let o =
          G.run ~check:(Guard.Prefix cfg.check_prefix)
            ~stability:entry.stability runner s x
        in
        if o.G.ok then begin
          if o.G.degraded then Metrics.Counter.incr t.metrics.Metrics.degraded;
          (Ok o.G.output, if o.G.degraded then `Faulty else `Clean)
        end
        else (Error (Failed (last_violation o)), `Faulty)
      end
      else
        match runner s x with
        | y -> (Ok y, `Clean)
        | exception Cancel.Cancelled -> raise Cancel.Cancelled
        | exception e -> (Error (Failed (Printexc.to_string e)), `Faulty)
    in
    breaker_report t key verdict;
    r

  (* ---------------------------------------------------------- requests *)

  (* One attempt's backend, decided per request kind: [Local f] runs on
     the calling domain; [Pooled (sh, f)] occupies shard [sh]'s pool (the
     home shard, or a thief picked by [exec_shard]) and gets the
     request's deadline as a cancellation token. *)
  type route =
    | Local of (unit -> (S.t array, error) result)
    | Pooled of shard * (Cancel.t -> (S.t array, error) result)

  (* Execution proper, timed into [exec] under a [serve.exec] span.  An
     exception is a failure; a cancellation is the deadline firing
     mid-flight, at a chunk boundary, so the pool stops being billed and
     the client sees a missed deadline. *)
  let exec t f =
    Trace.begin_span Trace.Serve "serve.exec";
    let e0 = now () in
    let r =
      match f () with
      | r -> r
      | exception Cancel.Cancelled ->
          Metrics.Counter.incr t.metrics.Metrics.cancelled_midflight;
          Error Deadline_exceeded
      | exception e -> Error (Failed (Printexc.to_string e))
    in
    Metrics.Histogram.observe t.metrics.Metrics.exec (now () -. e0);
    Trace.end_span ();
    r

  (* One admitted attempt: admission control, the deadline, then the
     kind's [route].  Only pooled attempts take the shard's
     [sexec_lock]; the attempt's queue time runs from the route decision
     until the lock is taken (a local attempt queues for nothing).
     [queue_depth] brackets the whole occupancy (queued + executing) — it
     is the congestion signal [exec_shard] reads.  The deadline is
     re-checked after the wait, so a request that missed it is dropped
     before touching the pool.  [served] is set to the shard that ran a
     pooled attempt. *)
  let attempt ?deadline ~served t route =
    if Atomic.fetch_and_add t.inflight 1 >= t.config.max_inflight then begin
      Atomic.decr t.inflight;
      Error Overloaded
    end
    else
      Fun.protect ~finally:(fun () -> Atomic.decr t.inflight) @@ fun () ->
      if deadline_passed deadline then Error Deadline_exceeded
      else
        match route () with
        | Local f ->
            Metrics.Histogram.observe t.metrics.Metrics.queue_wait 0.0;
            exec t f
        | Pooled (sh, f) ->
            let r0 = now () in
            served := sh;
            Atomic.incr sh.queue_depth;
            Fun.protect ~finally:(fun () -> Atomic.decr sh.queue_depth)
            @@ fun () ->
            Trace.begin_span2 Trace.Serve "serve.shard.exec" sh.sindex
              (Atomic.get sh.queue_depth);
            Fun.protect ~finally:Trace.end_span @@ fun () ->
            Trace.begin_span Trace.Serve "serve.queue";
            Mutex.lock sh.sexec_lock;
            Trace.end_span ();
            Metrics.Histogram.observe t.metrics.Metrics.queue_wait
              (now () -. r0);
            Fun.protect ~finally:(fun () -> Mutex.unlock sh.sexec_lock)
            @@ fun () ->
            if deadline_passed deadline then Error Deadline_exceeded
            else begin
              let cancel =
                match deadline with
                | None -> Cancel.none
                | Some d -> Cancel.create ~deadline:d ()
              in
              exec t (fun () -> f cancel)
            end

  let retryable = function
    | Error Overloaded | Error (Failed _) -> true
    | Ok _ | Error Deadline_exceeded -> false

  let error_code = function
    | Ok _ -> -1
    | Error Overloaded -> 0
    | Error Deadline_exceeded -> 1
    | Error (Failed _) -> 2

  (* Exponential backoff with deterministic jitter: the delay sequence of
     a given (key, attempt) pair is reproducible run to run, which keeps
     the chaos campaigns and their pinned tests deterministic. *)
  let backoff_delay t ~key ~attempt =
    let gen =
      Plr_util.Splitmix.create (Hashtbl.hash key lxor ((attempt + 1) * 0x9E3779B9))
    in
    let jitter =
      float_of_int (Plr_util.Splitmix.int_in gen ~lo:0 ~hi:1000) /. 1000.0
    in
    t.config.retry_backoff *. float_of_int (1 lsl attempt) *. (0.5 +. jitter)

  let count_outcome t kind r =
    let m = t.metrics and scan = kind = `Scan in
    match r with
    | Ok _ ->
        Metrics.Counter.incr m.Metrics.completed;
        if scan then Metrics.Counter.incr m.Metrics.scan_completed
    | Error Overloaded -> Metrics.Counter.incr m.Metrics.rejected
    | Error Deadline_exceeded -> Metrics.Counter.incr m.Metrics.deadline_missed
    | Error (Failed _) ->
        Metrics.Counter.incr m.Metrics.failed;
        if scan then Metrics.Counter.incr m.Metrics.scan_failed

  (* The request lifecycle both kinds share: a request span with one flow
     id linking it to the pool tasks that execute it (across domains) in
     the exported trace, an affinity route on [key], bounded retries
     with deterministic backoff, and the outcome counters.  [route
     attempt home] decides each attempt's backend; an [invalid] request
     fails without being routed. *)
  let request t kind ?deadline ?invalid ~key ~n route =
    let t0 = now () in
    let cat, span, retry_span =
      match kind with
      | `Recurrence -> (Trace.Serve, "serve.request", "serve.retry")
      | `Scan -> (Trace.Scan, "scan.request", "scan.retry")
    in
    Metrics.Counter.incr t.metrics.Metrics.submitted;
    if kind = `Scan then Metrics.Counter.incr t.metrics.Metrics.scan_submitted;
    let flow = if Trace.enabled () then Trace.next_flow_id () else 0 in
    Trace.begin_span2 cat span n flow;
    Trace.flow_start Trace.Serve "serve.flow" flow;
    Trace.set_ambient_flow flow;
    let r =
      match invalid with
      | Some msg -> Error (Failed msg)
      | None ->
          let home = home_shard t key in
          Atomic.incr home.routed;
          Trace.instant Trace.Serve "serve.shard.route" home.sindex
            (Atomic.get home.queue_depth);
          let served = ref home in
          let rec go i =
            let r = attempt ?deadline ~served t (fun () -> route i home) in
            if
              i < t.config.retries && retryable r
              && not (deadline_passed deadline)
            then begin
              Metrics.Counter.incr t.metrics.Metrics.retries;
              Trace.instant cat retry_span i (error_code r);
              let d = backoff_delay t ~key ~attempt:i in
              let d =
                match deadline with None -> d | Some dl -> min d (dl -. now ())
              in
              if d > 0.0 then Unix.sleepf d;
              go (i + 1)
            end
            else r
          in
          let r = go 0 in
          if Result.is_ok r then Atomic.incr !served.completed_on;
          r
    in
    count_outcome t kind r;
    Metrics.Histogram.observe t.metrics.Metrics.total (now () -. t0);
    Trace.set_ambient_flow 0;
    Trace.end_span ();
    r

  (* The recurrence's route.  The plan entry's [serial_cutoff], decided
     when the plan was built, keeps short requests on the calling domain:
     at these lengths the chunked protocol cannot win, and the serial
     kernel is bitwise the reference the guard would check against.  Longer
     ones run guarded, short to the calling domain while the signature's
     breaker is open.  A validated kernel needs no pool, so it runs on
     the calling domain too; only the pooled engine takes a shard, whose
     thief re-resolves the plan in its own cache partition.  Injected
     faults model a transient fault: they apply to the first attempt
     only, and skip the JIT, since letting the native kernel answer would
     route around the fault site (chaos reaches the JIT through its own
     [Jit] target). *)
  let recurrence_route ?faults t key s x attempt home =
    let faults = if attempt = 0 then faults else None in
    let n = Array.length x in
    let entry, _ = plan_on t home key s in
    let kernel e = if faults = None then e.jit else None in
    let local () =
      Local
        (fun () ->
          finite t
            (match try_jit t (kernel entry) x with
            | Some y -> y
            | None -> serial s x))
    in
    if n <= entry.serial_cutoff then local ()
    else
      match breaker_route t key with
      | `Serial ->
          Metrics.Counter.incr t.metrics.Metrics.breaker_shorted;
          local ()
      | `Pooled -> (
          match kernel entry with
          | Some jb as jit when G.JB.validated jb ->
              Local
                (fun () -> guarded t key entry ~jit ~fallback:serial s x)
          | _ ->
              let sh = exec_shard t home in
              let entry =
                if sh == home then entry else fst (plan_on t sh key s)
              in
              Pooled
                ( sh,
                  fun cancel ->
                    guarded t key entry ~jit:(kernel entry) s x
                      ~fallback:
                        (G.multicore_runner ~opts:t.config.opts ?faults
                           ~plan:entry.plan ~cancel ~pool:sh.spool
                           ~chunk_size:(max 1 t.config.chunk_size) ()) ))

  let submit ?deadline ?faults t (s : S.t Signature.t) x =
    let key = cache_key t s in
    request t `Recurrence ?deadline ~key ~n:(Array.length x)
      (recurrence_route ?faults t key s x)

  let scan_bucket n =
    let b = ref 1 in
    while !b < n do
      b := !b * 2
    done;
    !b

  (* The scan's route: [sparse] on the calling domain at every length
     (the monomorphic chain, bitwise the serial reference).  The pooled
     look-back engine loses to it at serving sizes (docs/serving.md). *)
  let scan_route t a b _attempt _home =
    Local (fun () -> finite t (Sc.sparse a b))

  (* Scan requests have no signature: they route on the scalar and the
     length bucket, so a steady mix of similar lengths shares a home. *)
  let submit_scan ?deadline t a b =
    let n = Array.length a in
    request t `Scan ?deadline
      ?invalid:
        (if Array.length b <> n then Some "coefficient streams differ in length"
         else None)
      ~key:(Printf.sprintf "scan|%s|%d" S.ctype (scan_bucket n))
      ~n (scan_route t a b)

  let session ?checkpoint_every t s =
    (* Sticky state lives on the signature's home shard — the same place
       plain requests for that signature land. *)
    let home = home_shard t (cache_key t s) in
    Session.create ~pool:home.spool ~metrics:t.metrics ?checkpoint_every s

  let migrate_session t session ~shard =
    if shard < 0 || shard >= Array.length t.shards_ then
      invalid_arg "Serve.migrate_session: shard index out of range";
    let sh = t.shards_.(shard) in
    let before = (Session.stats session).Session.migrations in
    Session.migrate session ~pool:sh.spool;
    if (Session.stats session).Session.migrations > before then
      Atomic.incr sh.migrations_in
end
