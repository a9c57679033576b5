(* Tests for the serving layer: the N-domain hammer (every concurrent
   response bitwise-identical to the serial reference), plan-cache
   behaviour under stress and at capacity 1, admission control and
   deadline pins, chaos alongside live traffic, the warm-vs-cold plan
   latency win, the routing of validated kernels and scans to the
   calling domain, the cache key's text, and the CLI's exit-2
   discipline on malformed flags. *)

module Scalar = Plr_util.Scalar
module Pool = Plr_exec.Pool
module Serve = Plr_serve.Serve
module Plan_cache = Plr_serve.Plan_cache
module Metrics = Plr_serve.Metrics
module Chaos = Plr_robust.Chaos

module Srv_i = Serve.Make (Scalar.Int)
module Srv_f = Serve.Make (Scalar.F32)
module Si = Plr_serial.Serial.Make (Scalar.Int)
module Chaos_i = Chaos.Make (Scalar.Int)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let int_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

let float_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:fwd ~feedback:fbk

let random_input seed n =
  let g = Plr_util.Splitmix.create seed in
  Array.init n (fun _ -> Plr_util.Splitmix.int_in g ~lo:(-9) ~hi:9)

(* Every execution path: local (small, mid), pooled (large). *)
let hammer_sizes = [| 64; 500; 3000; 20000 |]

let signatures =
  [ ("ps", int_sig [| 1 |] [| 1 |]);
    ("order2", int_sig [| 1 |] [| 2; -1 |]);
    ("tuple2", int_sig [| 1 |] [| 0; 1 |]);
    ("order3", int_sig [| 1 |] [| 3; -3; 1 |]) ]

(* ------------------------------------------------------------- hammer *)

(* The JIT reads its switch per call.  Pinned off here so the pooled
   requests run on the pool whether or not a kernel is already built. *)
let with_jit_off f =
  let old = Sys.getenv_opt "PLR_JIT" in
  Unix.putenv "PLR_JIT" "off";
  Fun.protect f ~finally:(fun () ->
      Unix.putenv "PLR_JIT" (Option.value ~default:"" old))

let test_hammer () =
  with_jit_off @@ fun () ->
  let config =
    { Serve.default_config with
      Serve.parallel_threshold = 4096;
      chunk_size = 1024 }
  in
  let server = Srv_i.create ~config ~domains:3 () in
  (* Reference outputs, one per (signature, size), computed serially. *)
  let expected =
    List.map
      (fun (name, s) ->
        ( name,
          Array.map
            (fun n ->
              let x = random_input (Hashtbl.hash name) n in
              (x, Si.full s x))
            hammer_sizes ))
      signatures
  in
  let reqs_per_client = 40 in
  let client idx =
    let g = Plr_util.Splitmix.create (1000 + idx) in
    let bad = ref [] in
    for r = 1 to reqs_per_client do
      let si = Plr_util.Splitmix.int_in g ~lo:0 ~hi:(List.length signatures - 1) in
      let zi = Plr_util.Splitmix.int_in g ~lo:0 ~hi:(Array.length hammer_sizes - 1) in
      let name, s = List.nth signatures si in
      let x, want = (snd (List.nth expected si)).(zi) in
      match Srv_i.submit server s x with
      | Ok got ->
          if got <> want then
            bad := Printf.sprintf "%s n=%d req %d diverged" name (Array.length x) r :: !bad
      | Error e ->
          bad := Printf.sprintf "%s n=%d req %d: %s" name (Array.length x) r
                   (Serve.error_to_string e) :: !bad
    done;
    !bad
  in
  let clients = 4 in
  let domains = Array.init (clients - 1) (fun i -> Domain.spawn (fun () -> client (i + 1))) in
  let bad = client 0 @ List.concat_map Domain.join (Array.to_list domains) in
  (match bad with
  | [] -> ()
  | b :: _ -> Alcotest.failf "%d bad responses, e.g. %s" (List.length bad) b);
  (* The mix has 4 signatures and 160 requests: the plan cache must be
     nearly all hits. *)
  let hits, misses, _ = Srv_i.cache_stats server in
  let rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  if rate < 0.9 then
    Alcotest.failf "plan cache hit rate %.2f (%d/%d), expected > 0.9" rate hits
      (hits + misses);
  (* Satellite: pool stats counted the work and expose the pool size. *)
  let st = Pool.stats (Srv_i.pool server) in
  Alcotest.(check int) "pool size" (Pool.size (Srv_i.pool server)) st.Pool.size;
  if st.Pool.jobs_completed <= 0 then
    Alcotest.failf "pool completed %d jobs, expected > 0" st.Pool.jobs_completed

(* --------------------------------------------------------- plan cache *)

let test_plan_cache_stress () =
  let cache = Plan_cache.create ~capacity:4 () in
  let keys = Array.init 16 (fun i -> Printf.sprintf "k%d" i) in
  let nclients = 4 in
  let per_client = 500 in
  let client idx =
    let g = Plr_util.Splitmix.create (77 + idx) in
    for _ = 1 to per_client do
      (* Zipf-ish: low keys much more popular, so hits and evictions mix. *)
      let r = Plr_util.Splitmix.int_in g ~lo:0 ~hi:31 in
      let ki = if r < 16 then r land 3 else r land 15 in
      let key = keys.(ki) in
      match Plan_cache.find_or_add cache key (fun () -> ki * 100) with
      | v, _hit when v = ki * 100 -> ()
      | v, _ -> Alcotest.failf "key %s returned %d" key v
    done
  in
  let ds = Array.init (nclients - 1) (fun i -> Domain.spawn (fun () -> client (i + 1))) in
  client 0;
  Array.iter Domain.join ds;
  let total = Plan_cache.hits cache + Plan_cache.misses cache in
  Alcotest.(check int) "every lookup counted" (nclients * per_client) total;
  if Plan_cache.length cache > 4 then
    Alcotest.failf "cache grew to %d entries past its capacity" (Plan_cache.length cache);
  if Plan_cache.evictions cache = 0 then
    Alcotest.fail "16 keys through 4 slots must evict";
  if Plan_cache.hits cache = 0 then Alcotest.fail "popular keys must hit"

let test_plan_cache_capacity_one () =
  (* A capacity-1 server is all misses and evictions — but stays correct. *)
  let config =
    { Serve.default_config with Serve.cache_capacity = 1 }
  in
  let server = Srv_i.create ~config ~domains:1 () in
  let a = int_sig [| 1 |] [| 1 |] and b = int_sig [| 1 |] [| 2; -1 |] in
  let x = random_input 5 300 in
  for _ = 1 to 10 do
    (match Srv_i.submit server a x with
    | Ok y -> Alcotest.(check (array int)) "sig a" (Si.full a x) y
    | Error e -> Alcotest.failf "a: %s" (Serve.error_to_string e));
    match Srv_i.submit server b x with
    | Ok y -> Alcotest.(check (array int)) "sig b" (Si.full b x) y
    | Error e -> Alcotest.failf "b: %s" (Serve.error_to_string e)
  done;
  let _, misses, evictions = Srv_i.cache_stats server in
  if misses < 20 then Alcotest.failf "expected every alternation to miss, got %d" misses;
  if evictions < 19 then Alcotest.failf "expected ~19 evictions, got %d" evictions

let test_warm_plan_is_faster () =
  (* The point of the cache: a hit skips the O(ck^2) compile.  Coarse
     assertion — 20 warm lookups together must beat one cold compile. *)
  let config = { Serve.default_config with Serve.chunk_size = 8192 } in
  let server = Srv_i.create ~config ~domains:1 () in
  let s = int_sig [| 1 |] [| 3; -3; 1 |] in
  let t0 = Unix.gettimeofday () in
  let _, hit = Srv_i.plan_for server s in
  let cold = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "first resolve is a miss" false hit;
  let t1 = Unix.gettimeofday () in
  for _ = 1 to 20 do
    let _, hit = Srv_i.plan_for server s in
    if not hit then Alcotest.fail "warm resolve must hit"
  done;
  let warm20 = Unix.gettimeofday () -. t1 in
  if warm20 >= cold then
    Alcotest.failf "20 warm lookups (%.6fs) not faster than one compile (%.6fs)"
      warm20 cold

(* --------------------------------------- admission control + deadlines *)

let test_overloaded () =
  let config = { Serve.default_config with Serve.max_inflight = 0 } in
  let server = Srv_i.create ~config ~domains:1 () in
  let s = int_sig [| 1 |] [| 1 |] in
  (match Srv_i.submit server s [| 1; 2; 3 |] with
  | Error Serve.Overloaded -> ()
  | Ok _ -> Alcotest.fail "max_inflight 0 must reject"
  | Error e -> Alcotest.failf "expected Overloaded, got %s" (Serve.error_to_string e));
  let m = Srv_i.metrics server in
  Alcotest.(check int) "rejection counted" 1
    (Metrics.Counter.get m.Metrics.rejected)

let test_deadline () =
  let server = Srv_i.create ~domains:1 () in
  let s = int_sig [| 1 |] [| 1 |] in
  let past = Unix.gettimeofday () -. 1.0 in
  (match Srv_i.submit ~deadline:past server s [| 1; 2; 3 |] with
  | Error Serve.Deadline_exceeded -> ()
  | Ok _ -> Alcotest.fail "expired deadline must be cut"
  | Error e ->
      Alcotest.failf "expected Deadline_exceeded, got %s" (Serve.error_to_string e));
  let m = Srv_i.metrics server in
  Alcotest.(check int) "miss counted" 1
    (Metrics.Counter.get m.Metrics.deadline_missed);
  (* A generous deadline passes. *)
  let future = Unix.gettimeofday () +. 60.0 in
  match Srv_i.submit ~deadline:future server s [| 1; 2; 3 |] with
  | Ok y -> Alcotest.(check (array int)) "served" [| 1; 3; 6 |] y
  | Error e -> Alcotest.failf "future deadline failed: %s" (Serve.error_to_string e)

(* -------------------------------------------------------------- chaos *)

let test_chaos_alongside_traffic () =
  (* A seeded fault-injection campaign drives the multicore engine on the
     same registry pool a live server is using.  Requirements: the chaos
     trials report zero silent divergence, and every concurrently served
     response stays bitwise-identical. *)
  let server = Srv_i.create ~domains:2 () in
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let x = random_input 11 2000 in
  let want = Si.full s x in
  let chaos =
    Domain.spawn (fun () ->
        let summary, _ =
          Chaos_i.campaign ~trials:40 ~n:384 ~domains:2 ~seed:21
            ~target:Chaos.Multicore s
        in
        summary)
  in
  let bad = ref 0 in
  for _ = 1 to 60 do
    match Srv_i.submit server s x with
    | Ok y -> if y <> want then incr bad
    | Error (Serve.Failed m) -> Alcotest.failf "serve failed under chaos: %s" m
    | Error _ -> ()
  done;
  let summary = Domain.join chaos in
  Alcotest.(check int) "no silent divergence in chaos trials" 0
    summary.Chaos.silent;
  Alcotest.(check int) "no divergent responses" 0 !bad

(* ------------------------------------------------------------ metrics *)

let test_metrics_histogram () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Metrics.Histogram.percentile h 0.99);
  for _ = 1 to 90 do Metrics.Histogram.observe h 1e-4 done;
  for _ = 1 to 10 do Metrics.Histogram.observe h 1e-1 done;
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
  let p50 = Metrics.Histogram.percentile h 0.50 in
  if p50 > 1e-3 then Alcotest.failf "p50 %.6f should be ~1e-4" p50;
  let p99 = Metrics.Histogram.percentile h 0.99 in
  if p99 < 1e-2 then Alcotest.failf "p99 %.6f should reach the slow bucket" p99;
  let mean = Metrics.Histogram.mean h in
  if mean < 5e-3 || mean > 2e-2 then
    Alcotest.failf "mean %.6f, expected ~1.01e-2" mean

let test_snapshot_json () =
  let server = Srv_f.create ~domains:1 () in
  let s = float_sig [| 0.2 |] [| 0.8 |] in
  let x = Array.init 512 (fun i -> Plr_util.F32.round (float_of_int (i mod 7))) in
  (match Srv_f.submit server s x with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" (Serve.error_to_string e));
  let json = Srv_f.snapshot_json server in
  List.iter
    (fun needle ->
      if not (contains ~needle json) then
        Alcotest.failf "snapshot missing %s in %s" needle json)
    [ {|"submitted": 1|}; {|"completed": 1|}; {|"plan_cache_misses": 1|};
      {|"shards"|}; {|"queue_wait"|} ]

(* [queue_wait] runs from admission to execution start.  A local request
   never queues, so a cold plan's compile shows in [plan_build] and not
   in [queue_wait]. *)
let test_queue_wait_local () =
  let server = Srv_i.create ~domains:1 () in
  let s = int_sig [| 1 |] [| 3; -3; 1 |] in
  let x = random_input 41 512 in
  (match Srv_i.submit server s x with
  | Ok y -> Alcotest.(check (array int)) "served" (Si.full s x) y
  | Error e -> Alcotest.failf "submit: %s" (Serve.error_to_string e));
  let m = Srv_i.metrics server in
  Alcotest.(check int) "the plan was built" 1
    (Metrics.Histogram.count m.Metrics.plan_build);
  Alcotest.(check int) "one attempt" 1
    (Metrics.Histogram.count m.Metrics.queue_wait);
  Alcotest.(check (float 0.0)) "a local attempt queues for nothing" 0.0
    (Metrics.Histogram.mean m.Metrics.queue_wait)

(* ------------------------------------------------------------- shards *)

(* 2 shards, steal threshold 1, pooled-size requests of one signature:
   everything homes on one shard, so any overlap sends work to the idle
   shard.  Plain requests may be stolen freely — their results must stay
   bitwise identical to serial — while the sticky session alongside is
   never stolen, only explicitly migrated, and must not lose state
   across forced migrations. *)
let shard_test_config =
  {
    Serve.default_config with
    Serve.shards = 2;
    steal_threshold = 1;
    parallel_threshold = 256;
    chunk_size = 64;
  }

(* The JIT is off: a validated kernel would answer on the calling domain
   and never reach a shard's queue. *)
let test_steal_vs_sticky_session () =
  with_jit_off @@ fun () ->
  let server = Srv_i.create ~config:shard_test_config ~domains:1 () in
  Fun.protect ~finally:(fun () -> Srv_i.shutdown server) @@ fun () ->
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let x = random_input 17 600 in
  let want = Si.full s x in
  let reqs = 40 in
  let hammer () =
    let bad = ref 0 in
    for _ = 1 to reqs do
      (match Srv_i.submit server s x with
      | Ok y -> if y <> want then incr bad
      | Error _ -> incr bad)
    done;
    !bad
  in
  (* Both hammers in spawned domains so their pooled requests genuinely
     overlap (any overlap through threshold 1 steals); the sticky
     session streams on this thread alongside them, force-migrated
     between shards mid-stream. *)
  let hammer_doms = Array.init 2 (fun _ -> Domain.spawn hammer) in
  let sx = random_input 23 400 in
  let swant = Si.full s sx in
  let session = Srv_i.session ~checkpoint_every:48 server s in
  let home = Srv_i.shard_of_signature server s in
  let away = (home + 1) mod Srv_i.shard_count server in
  let got = ref [] in
  for c = 0 to 3 do
    if c = 1 then Srv_i.migrate_session server session ~shard:away;
    if c = 3 then Srv_i.migrate_session server session ~shard:home;
    got := Srv_i.Session.process session (Array.sub sx (c * 100) 100) :: !got
  done;
  let bad =
    Array.fold_left (fun a d -> a + Domain.join d) 0 hammer_doms
  in
  Alcotest.(check int) "stolen plain requests bitwise identical" 0 bad;
  (* Deterministic steal, independent of scheduler luck: occupy the home
     shard with one long pooled request, wait until its queue depth is
     visible, then submit — the router must divert to the idle shard,
     and the stolen response must still be bitwise identical. *)
  let big = random_input 29 1_000_000 in
  let big_want = Si.full s big in
  let blocker = Domain.spawn (fun () -> Srv_i.submit server s big) in
  let give_up = Unix.gettimeofday () +. 30.0 in
  while
    (Srv_i.shard_stats server).(home).Srv_i.depth = 0
    && Unix.gettimeofday () < give_up
  do
    Domain.cpu_relax ()
  done;
  (match Srv_i.submit server s x with
  | Ok y ->
      Alcotest.(check (array int)) "stolen while home busy, still bitwise"
        want y
  | Error e -> Alcotest.failf "steal submit: %s" (Serve.error_to_string e));
  (match Domain.join blocker with
  | Ok y -> Alcotest.(check (array int)) "blocker response bitwise" big_want y
  | Error e -> Alcotest.failf "blocker: %s" (Serve.error_to_string e));
  Alcotest.(check (array int)) "session unaffected by forced migrations"
    swant
    (Array.concat (List.rev !got));
  let st = Srv_i.Session.stats session in
  Alcotest.(check int) "both migrations performed" 2 st.Srv_i.Session.migrations;
  let m = Srv_i.metrics server in
  if Metrics.Counter.get m.Metrics.steals = 0 then
    Alcotest.fail "80 overlapping pooled requests through threshold 1 must steal";
  Alcotest.(check int) "migrations counted in metrics" 2
    (Metrics.Counter.get m.Metrics.session_migrations)

(* A session is recovery wrapped around a [Multicore.Stream] with no
   filter code of its own: its outputs are the stream's bit for bit. *)
module Stream_f = Plr_multicore.Stream.Make (Scalar.F32)
module Stream_i = Plr_multicore.Stream.Make (Scalar.Int)
module Sf = Plr_serial.Serial.Make (Scalar.F32)
module Sess_f = Plr_serve.Session.Make (Scalar.F32)

let session_vs_stream (type a) ~(session : a array -> a array)
    ~(stream : a array -> a array) ~(bits : a -> int64) name pieces =
  Array.iteri
    (fun p x ->
      let want = stream x and got = session x in
      Array.iteri
        (fun i v ->
          if bits v <> bits got.(i) then
            Alcotest.failf "%s: piece %d element %d differs from the stream"
              name p i)
        want)
    pieces

let int_pieces g ~count ~len =
  Array.init count (fun _ ->
      Array.init len (fun _ -> Plr_util.Splitmix.int_in g ~lo:(-9) ~hi:9))

let float_pieces g ~count ~len =
  Array.map (Array.map float_of_int) (int_pieces g ~count ~len)

let f32_sig (e : Table1.entry) = Signature.map Plr_util.F32.round e.Table1.signature

(* The positions where two float arrays differ bitwise. *)
let bit_diffs (want : float array) (got : float array) =
  let d = ref 0 in
  Array.iteri
    (fun i v -> if Int64.bits_of_float v <> Int64.bits_of_float got.(i) then incr d)
    want;
  !d

let test_session_matches_stream () =
  let server = Srv_f.create ~domains:2 () in
  let server_i = Srv_i.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () ->
      Srv_f.shutdown server;
      Srv_i.shutdown server_i)
  @@ fun () ->
  let g = Plr_util.Splitmix.create 2026 in
  List.iter
    (fun (e : Table1.entry) ->
      let s = f32_sig e in
      session_vs_stream
        ~session:(Srv_f.Session.process (Srv_f.session server s))
        ~stream:(Stream_f.process (Stream_f.create ~domains:2 s))
        ~bits:Int64.bits_of_float e.Table1.name
        (float_pieces g ~count:16 ~len:4096))
    Table1.all;
  let s = int_sig [| 1 |] [| 2; -1 |] in
  session_vs_stream
    ~session:(Srv_i.Session.process (Srv_i.session server_i s))
    ~stream:(Stream_i.process (Stream_i.create ~domains:2 s))
    ~bits:Int64.of_int "order2 (int)"
    (int_pieces g ~count:16 ~len:4096)

(* The serve-sessions shape (one-domain shard pools, 64 pieces of 4096)
   on every Table 1 F32 signature, order2 and order3 included: a session
   is bitwise [Serial.full] over its inputs and compiles no factor
   plan. *)
let test_session_serial_table1 () =
  let server = Srv_f.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Srv_f.shutdown server) @@ fun () ->
  let g = Plr_util.Splitmix.create 2027 in
  List.iter
    (fun (e : Table1.entry) ->
      let s = f32_sig e in
      let pieces = float_pieces g ~count:64 ~len:4096 in
      let session = Srv_f.session server s in
      Plr_trace.Trace.reset ();
      Plr_trace.Trace.set_enabled true;
      let got =
        Fun.protect ~finally:(fun () -> Plr_trace.Trace.set_enabled false)
          (fun () -> Array.map (Srv_f.Session.process session) pieces)
      in
      let compiles =
        List.length
          (List.filter
             (fun ev -> ev.Plr_trace.Trace.name = "factor.compile")
             (Plr_trace.Trace.collect ()))
      in
      Alcotest.(check int) (e.Table1.name ^ ": factor compiles") 0 compiles;
      let want = Sf.full s (Array.concat (Array.to_list pieces)) in
      let d = bit_diffs want (Array.concat (Array.to_list got)) in
      if d > 0 then
        Alcotest.failf "%s: %d of %d elements differ from Serial.full"
          e.Table1.name d (Array.length want))
    Table1.all

(* An engine fault only detects.  A faulted piece whose engine run passes
   its check, like one that fails it, commits the stream's clean output:
   over 200 fault seeds at piece 1, a one-domain F32 lp2 session stays
   bitwise its unfaulted twin. *)
let test_session_engine_fault_clean () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let s = f32_sig Table1.low_pass2 in
  let pieces = float_pieces (Plr_util.Splitmix.create 37) ~count:3 ~len:4096 in
  let twin = Sess_f.create ~pool s in
  let want = Array.map (Sess_f.process twin) pieces in
  let bad = ref [] in
  for seed = 0 to 199 do
    let session = Sess_f.create ~pool s in
    Array.iteri
      (fun p x ->
        let fault = if p = 1 then Some (Plr_serve.Session.Engine_fault seed) else None in
        if bit_diffs want.(p) (Sess_f.process ?fault session x) > 0 then
          bad := seed :: !bad)
      pieces
  done;
  Alcotest.(check (list int)) "seeds whose session left its twin" []
    (List.sort_uniq compare !bad)

(* Recovery, faults and migration leave a session's F32 outputs bitwise
   those of an undisturbed session, whatever the pools' sizes.  One
   session is crashed back to its position-0 checkpoint, migrated from a
   one-domain pool to a two-domain one with a journal past a later
   checkpoint, corrupted, and engine-faulted, over 65,536-element
   pieces. *)
let test_session_recover_migrate_f32 () =
  let home = Pool.create ~domains:1 () and away = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown home;
      Pool.shutdown away)
  @@ fun () ->
  let len = 65536 in
  let pieces = float_pieces (Plr_util.Splitmix.create 31) ~count:12 ~len in
  List.iter
    (fun (e : Table1.entry) ->
      let s = f32_sig e in
      let plain = Sess_f.create ~pool:home s in
      let moved = Sess_f.create ~pool:home ~checkpoint_every:(3 * len) s in
      Array.iteri
        (fun p x ->
          if p = 4 then Sess_f.migrate moved ~pool:away;
          let fault =
            match p with
            | 2 -> Some Plr_serve.Session.Crash
            | 7 -> Some Plr_serve.Session.Corrupt_state
            | 10 -> Some (Plr_serve.Session.Engine_fault 5)
            | _ -> None
          in
          let want = Sess_f.process plain x
          and got = Sess_f.process ?fault moved x in
          let d = bit_diffs want got in
          if d > 0 then
            Alcotest.failf "%s: piece %d: %d elements differ after recovery"
              e.Table1.name p d)
        pieces;
      let st = Sess_f.stats moved in
      Alcotest.(check int) (e.Table1.name ^ ": migrated once") 1
        st.Sess_f.migrations;
      if st.Sess_f.recoveries < 3 then
        Alcotest.failf "%s: %d recoveries, expected at least 3" e.Table1.name
          st.Sess_f.recoveries)
    Table1.float_entries

(* Per-shard rows must reconcile with the global counters under a
   concurrent mixed hammer (plain requests across the local and pooled
   paths, plus scans). *)
let test_shard_metrics_sum () =
  let server = Srv_i.create ~config:shard_test_config ~domains:1 () in
  Fun.protect ~finally:(fun () -> Srv_i.shutdown server) @@ fun () ->
  let sigs =
    [| int_sig [| 1 |] [| 1 |]; int_sig [| 1 |] [| 2; -1 |];
       int_sig [| 1 |] [| 0; 1 |] |]
  in
  let hammer idx () =
    let g = Plr_util.Splitmix.create (900 + idx) in
    for r = 1 to 30 do
      let s = sigs.(Plr_util.Splitmix.int_in g ~lo:0 ~hi:2) in
      let n = if r land 1 = 0 then 120 else 600 in
      ignore (Srv_i.submit server s (random_input (idx * 100 + r) n));
      if r land 7 = 0 then begin
        let a = Array.make 500 1 and b = Array.make 500 2 in
        ignore (Srv_i.submit_scan server a b)
      end
    done
  in
  let d = Domain.spawn (hammer 1) in
  hammer 0 ();
  Domain.join d;
  let m = Srv_i.metrics server in
  let stats = Srv_i.shard_stats server in
  let sum f = Array.fold_left (fun a st -> a + f st) 0 stats in
  Alcotest.(check int) "routed rows sum to submitted"
    (Metrics.Counter.get m.Metrics.submitted)
    (sum (fun st -> st.Srv_i.st_routed));
  Alcotest.(check int) "completed rows sum to completed"
    (Metrics.Counter.get m.Metrics.completed)
    (sum (fun st -> st.Srv_i.st_completed));
  Alcotest.(check int) "steals-in rows sum to the steals counter"
    (Metrics.Counter.get m.Metrics.steals)
    (sum (fun st -> st.Srv_i.st_steals_in));
  Alcotest.(check int) "steals-out rows sum to the steals counter"
    (Metrics.Counter.get m.Metrics.steals)
    (sum (fun st -> st.Srv_i.st_steals_out));
  Alcotest.(check int) "quiescent queues" 0
    (sum (fun st -> st.Srv_i.depth));
  let json = Srv_i.snapshot_json server in
  List.iter
    (fun needle ->
      if not (contains ~needle json) then
        Alcotest.failf "snapshot missing %s" needle)
    [ {|"shards": [|}; {|"affinity_hit_rate"|}; {|"steals_in"|};
      {|"migrations_in"|} ]

let test_shard_affinity_stable () =
  (* Affinity is a pure function of the key: two servers with the same
     configuration route every signature identically. *)
  let a = Srv_i.create ~config:shard_test_config ~domains:1 () in
  let b = Srv_i.create ~config:shard_test_config ~domains:1 () in
  Fun.protect ~finally:(fun () -> Srv_i.shutdown a; Srv_i.shutdown b)
  @@ fun () ->
  let sigs =
    [ int_sig [| 1 |] [| 1 |]; int_sig [| 1 |] [| 2; -1 |];
      int_sig [| 1 |] [| 0; 1 |]; int_sig [| 1 |] [| 3; -3; 1 |] ]
  in
  List.iter
    (fun s ->
      let ha = Srv_i.shard_of_signature a s in
      Alcotest.(check int) "same route on both servers" ha
        (Srv_i.shard_of_signature b s);
      if ha < 0 || ha >= Srv_i.shard_count a then
        Alcotest.failf "home shard %d out of range" ha)
    sigs;
  (* One shared pool contradicts shards > 1. *)
  match Srv_i.create ~config:shard_test_config ~pool:(Srv_i.pool a) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "?pool with shards > 1 must be rejected"

(* ------------------------------------------------------------ routing *)

module JBi = Plr_jit.Backend.Make (Scalar.Int)

(* A pooled-size request whose kernel is validated runs on the calling
   domain: it completes while a request without a kernel holds the
   shard's pool, and it is not counted as a pooled execution. *)
let test_validated_kernel_skips_pool () =
  if not (Plr_jit.Jit.enabled () && Plr_jit.Jit.toolchain_available ()) then
    Alcotest.skip ();
  let config =
    { Serve.default_config with Serve.parallel_threshold = 256; chunk_size = 64 }
  in
  let server = Srv_i.create ~config ~domains:1 () in
  let fast = int_sig [| 1 |] [| 2; -1 |] and slow = int_sig [| 1 |] [| 3; -3; 1 |] in
  (* built with the JIT off, the slow signature's entry has no kernel *)
  with_jit_off (fun () -> ignore (Srv_i.plan_for server slow));
  (match (fst (Srv_i.plan_for server fast)).Srv_i.jit with
  | Some jb -> ignore (JBi.wait jb)
  | None -> Alcotest.fail "no kernel for the fast signature");
  ignore (Srv_i.submit server fast (random_input 60 100));
  (match (fst (Srv_i.plan_for server fast)).Srv_i.jit with
  | Some jb -> Alcotest.(check bool) "kernel validated" true (JBi.validated jb)
  | None -> ());
  let x = random_input 61 4096 and big = random_input 62 1_000_000 in
  let want = Si.full fast x and big_want = Si.full slow big in
  let depth () = (Srv_i.shard_stats server).(0).Srv_i.depth in
  let pooled () = (Srv_i.shard_stats server).(0).Srv_i.st_pooled_home in
  (* One round: the blocker holds the pool while the kernel's request
     runs, unless the host stalls this domain for the blocker's whole
     run; three rounds make that a non-event. *)
  let round () =
    let blocker = Domain.spawn (fun () -> Srv_i.submit server slow big) in
    let give_up = Unix.gettimeofday () +. 30.0 in
    while depth () = 0 && Unix.gettimeofday () < give_up do
      Domain.cpu_relax ()
    done;
    let before = pooled () in
    let r = Srv_i.submit server fast x in
    let overlapped = depth () > 0 in
    (match r with
    | Ok y -> Alcotest.(check (array int)) "kernel answer bitwise" want y
    | Error e -> Alcotest.failf "fast: %s" (Serve.error_to_string e));
    Alcotest.(check int) "not a pooled execution" before (pooled ());
    (match Domain.join blocker with
    | Ok y -> Alcotest.(check (array int)) "blocker bitwise" big_want y
    | Error e -> Alcotest.failf "blocker: %s" (Serve.error_to_string e));
    overlapped
  in
  if not (round () || round () || round ()) then
    Alcotest.fail "the kernel's request waited for the pooled one"

(* A pooled request runs the configured schedule: the entry's factor
   plan covers [config.chunk_size] whatever length [plan_for] is told
   (the argument is ignored), the pooled engine's output is bitwise
   [Serial.full], and the snapshot carries no schedule-tuning field.
   The JIT is off so that the request takes the pool. *)
module FPi = Plr_factors.Factor_plan.Make (Scalar.Int)

let test_pooled_plan_is_configured () =
  with_jit_off @@ fun () ->
  let config =
    { Serve.default_config with Serve.parallel_threshold = 4096; chunk_size = 1024 }
  in
  let server = Srv_i.create ~config ~domains:2 () in
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let entry, hit = Srv_i.plan_for ~n:(1 lsl 26) server s in
  Alcotest.(check bool) "first lookup compiles" false hit;
  Alcotest.(check int) "plan covers config.chunk_size" 1024
    entry.Srv_i.plan.FPi.m;
  let x = random_input 64 8192 in
  (match Srv_i.submit server s x with
  | Ok y -> Alcotest.(check (array int)) "pooled output bitwise" (Si.full s x) y
  | Error e -> Alcotest.failf "submit: %s" (Serve.error_to_string e));
  Alcotest.(check int) "ran on the pool" 1
    (Srv_i.shard_stats server).(0).Srv_i.st_pooled_home;
  Alcotest.(check bool) "no tuning field" false
    (contains ~needle:{|"tuning"|} (Srv_i.snapshot_json server))

(* Every served scan is [sparse]'s chain, bitwise the serial scan, on a
   two-domain pool above [parallel_threshold] too. *)
let test_scan_bitwise_serial () =
  let module Sc = Plr_scan.Scan.Make (Scalar.F32) in
  let server = Srv_f.create ~domains:2 () in
  let g = Plr_util.Splitmix.create 63 in
  let n = 32768 in
  let a = Array.init n (fun _ -> Plr_util.F32.round (Plr_util.Splitmix.float_in g ~lo:0.5 ~hi:1.0)) in
  let b = Array.init n (fun _ -> Plr_util.F32.round (Plr_util.Splitmix.float_in g ~lo:(-2.0) ~hi:2.0)) in
  match Srv_f.submit_scan server a b with
  | Ok y ->
      Alcotest.(check int) "bit differences from Sc.serial" 0
        (bit_diffs (Sc.serial a b) y)
  | Error e -> Alcotest.failf "scan: %s" (Serve.error_to_string e)

(* The cache key is the [Format] rendering it replaced, byte for byte:
   routing hashes it and must stay stable across processes. *)
let test_cache_key_text =
  let edge = [ Float.nan; -0.0; 0.0; 0x1p-149; -0x1.fffffcp-127; infinity; 1e300 ] in
  let coeff =
    QCheck2.Gen.(frequency [ (3, float_range (-2.0) 2.0); (1, oneofl edge) ])
  in
  let coeffs = QCheck2.Gen.(array_size (int_range 1 12) coeff) in
  let gen = QCheck2.Gen.(triple coeffs coeffs bool) in
  let print (f, b, on) =
    Printf.sprintf "forward=%s feedback=%s opts=%b"
      (String.concat "," (Array.to_list (Array.map string_of_float f)))
      (String.concat "," (Array.to_list (Array.map string_of_float b)))
      on
  in
  let servers =
    List.map
      (fun opts -> Srv_f.create ~config:{ Serve.default_config with Serve.opts } ~domains:1 ())
      [ Plr_factors.Opts.all_off; Plr_factors.Opts.all_on ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cache key = Format rendering" ~count:300
       ~long_factor:10 ~print gen (fun (forward, feedback, on) ->
         let last a =
           let a = Array.copy a and n = Array.length a in
           if a.(n - 1) = 0.0 then a.(n - 1) <- 1.0;
           a
         in
         let s =
           Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:(last forward)
             ~feedback:(last feedback)
         in
         let server = List.nth servers (Bool.to_int on) in
         let want =
           Format.asprintf "%s|%a|%a" "float" Plr_factors.Opts.pp
             (Srv_f.config server).Serve.opts
             (Signature.pp (fun fmt c ->
                  Format.pp_print_string fmt (string_of_float c)))
             s
         in
         String.equal want (Srv_f.cache_key server s)))

(* ------------------------------------------------------- CLI exit = 2 *)

let plr_exe = "../bin/plr.exe"

let test_cli_flag_errors () =
  if not (Sys.file_exists plr_exe) then
    print_endline "plr.exe not built next to the tests; skipping the CLI pins"
  else begin
    let check_exit2 label cmd =
      let code = Sys.command (cmd ^ " >/dev/null 2>&1") in
      Alcotest.(check int) (label ^ " exits 2") 2 code
    in
    check_exit2 "bad signature" (plr_exe ^ " info '(1: 0)'");
    check_exit2 "negative n" (plr_exe ^ " run '(1: 1)' -n -5 --backend serial");
    check_exit2 "unwritable output"
      (plr_exe ^ " compile '(1: 2, -1)' -o /nonexistent/dir/x.cu");
    check_exit2 "bad sched" (plr_exe ^ " execute '(1: 1)' -n 64 --sched bogus");
    (* Type-level parse errors never reach our code: cmdliner reports
       them itself with its documented CLI-error status. *)
    let code =
      Sys.command (plr_exe ^ " run '(1: 1)' -n notanint >/dev/null 2>&1")
    in
    Alcotest.(check int) "unparsable flag uses cmdliner's CLI-error status"
      124 code
  end

(* ---------------------------------------------------------------- run *)

let () =
  Alcotest.run "serve"
    [
      ( "hammer",
        [ Alcotest.test_case "concurrent bitwise identity" `Quick test_hammer ] );
      ( "plan cache",
        [ Alcotest.test_case "concurrent stress" `Quick test_plan_cache_stress;
          Alcotest.test_case "capacity 1" `Quick test_plan_cache_capacity_one;
          Alcotest.test_case "warm beats cold" `Quick test_warm_plan_is_faster ] );
      ( "admission",
        [ Alcotest.test_case "overloaded" `Quick test_overloaded;
          Alcotest.test_case "deadline" `Quick test_deadline ] );
      ( "chaos",
        [ Alcotest.test_case "alongside traffic" `Quick
            test_chaos_alongside_traffic ] );
      ( "shards",
        [ Alcotest.test_case "steal vs sticky session" `Quick
            test_steal_vs_sticky_session;
          Alcotest.test_case "per-shard metrics sum" `Quick
            test_shard_metrics_sum;
          Alcotest.test_case "session output is the stream's" `Quick
            test_session_matches_stream;
          Alcotest.test_case "Table 1 F32 sessions are bitwise Serial.full"
            `Quick test_session_serial_table1;
          Alcotest.test_case "engine fault commits the clean output" `Quick
            test_session_engine_fault_clean;
          Alcotest.test_case "F32 session recovery and migration bitwise" `Quick
            test_session_recover_migrate_f32;
          Alcotest.test_case "affinity stable" `Quick
            test_shard_affinity_stable ] );
      ( "metrics",
        [ Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
          Alcotest.test_case "local queue wait excludes the plan build" `Quick
            test_queue_wait_local ] );
      ( "routing",
        [ Alcotest.test_case "validated kernel skips the pool" `Quick
            test_validated_kernel_skips_pool;
          Alcotest.test_case "pooled plan is the configured one" `Quick
            test_pooled_plan_is_configured;
          Alcotest.test_case "32768-element scan is bitwise serial" `Quick
            test_scan_bitwise_serial;
          test_cache_key_text ] );
      ( "cli",
        [ Alcotest.test_case "flag errors exit 2" `Quick test_cli_flag_errors ] );
    ]
