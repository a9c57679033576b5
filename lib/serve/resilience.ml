module Splitmix = Plr_util.Splitmix
module Faults = Plr_gpusim.Faults
module S = Plr_util.Scalar.Int
module Serve_ = Serve.Make (S)
module Session_ = Session.Make (S)
module Serial = Plr_serial.Serial.Make (S)

type summary = {
  trials : int;
  faults_injected : int;
  recoveries : int;
  fastforwards : int;
  checkpoints : int;
  retries : int;
  breaker_trips : int;
  steals : int;
  migrations : int;
  bitwise_ok : int;
  failures : (int * string) list;
}

let ok s = s.failures = []

let empty trials =
  {
    trials;
    faults_injected = 0;
    recoveries = 0;
    fastforwards = 0;
    checkpoints = 0;
    retries = 0;
    breaker_trips = 0;
    steals = 0;
    migrations = 0;
    bitwise_ok = 0;
    failures = [];
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "%d trials (%d with injected faults): %d bitwise-identical, %d \
     recoveries, %d fast-forwards, %d checkpoints, %d retries, %d breaker \
     trips, %d steals, %d migrations, %d failures"
    s.trials s.faults_injected s.bitwise_ok s.recoveries s.fastforwards
    s.checkpoints s.retries s.breaker_trips s.steals s.migrations
    (List.length s.failures);
  List.iter
    (fun (seed, msg) -> Format.fprintf ppf "@,  seed %d: %s" seed msg)
    s.failures

(* Run [trials] seeded trials.  A trial returns how its counters add to
   the summary and its divergence, if any; a trial that raises is a
   failure. *)
let campaign ~trials ~seed_of trial =
  let acc = ref (empty trials) in
  for i = 0 to trials - 1 do
    let seed = seed_of i in
    let a = !acc in
    acc :=
      match trial seed with
      | add, bad ->
          let a = add a in
          {
            a with
            faults_injected = a.faults_injected + 1;
            bitwise_ok = (a.bitwise_ok + if bad = None then 1 else 0);
            failures =
              (match bad with
              | None -> a.failures
              | Some msg -> (seed, msg) :: a.failures);
          }
      | exception e ->
          { a with failures = (seed, Printexc.to_string e) :: a.failures }
  done;
  { !acc with failures = List.rev !acc.failures }

let add_session (st : Session_.stats) a =
  {
    a with
    recoveries = a.recoveries + st.Session_.recoveries;
    fastforwards = a.fastforwards + st.Session_.fastforwards;
    checkpoints = a.checkpoints + st.Session_.checkpoints;
  }

(* A guaranteed-harmful fault: one carry corruption on a non-final
   chunk (a purely random plan can be benign). *)
let corrupt_carry ~chunks ~k i =
  {
    Faults.kind = Faults.Corrupt_carry;
    chunk = i mod max 1 (chunks - 1);
    lane = i mod k;
    delay = 1;
  }

(* Campaigns run over the integer scalar on purpose: native wrap-around
   makes every engine path — pooled, serial, recovered, fast-forwarded —
   a computation in the same commutative ring, so "recovered correctly"
   is checkable as bitwise equality, with no tolerance to hide behind. *)

let random_signature gen =
  let k = Splitmix.int_in gen ~lo:1 ~hi:3 in
  let taps = Splitmix.int_in gen ~lo:1 ~hi:3 in
  (* Signature.create requires the trailing coefficient of each side to
     be non-zero (otherwise the order/tap count would lie). *)
  let nonzero_last len lo hi =
    Array.init len (fun i ->
        let v = Splitmix.int_in gen ~lo ~hi in
        S.of_int (if i = len - 1 && v = 0 then 1 else v))
  in
  let feedback = nonzero_last k (-2) 2 in
  let forward = nonzero_last taps (-3) 3 in
  Signature.create ~is_zero:S.is_zero ~forward ~feedback

type seg = Data of int | Gap of int

let random_segments gen =
  let n = Splitmix.int_in gen ~lo:3 ~hi:8 in
  List.init n (fun _ ->
      if Splitmix.int_in gen ~lo:0 ~hi:3 = 0 then
        Gap (Splitmix.int_in gen ~lo:5 ~hi:300)
      else Data (Splitmix.int_in gen ~lo:1 ~hi:80))

let random_fault gen =
  match Splitmix.int_in gen ~lo:0 ~hi:2 with
  | 0 -> Session.Crash
  | 1 -> Session.Corrupt_state
  | _ -> Session.Engine_fault (Splitmix.int_in gen ~lo:0 ~hi:1_000_000)

(* One session trial: a random signature streamed in random segments
   (data chunks and zero-input gaps) with one fault injected mid-stream,
   checked bitwise against one offline serial pass over the whole
   input. *)
let session_trial ?pool ?domains ~checkpoint_every seed =
  let gen = Splitmix.create seed in
  let s = random_signature gen in
  let segs = random_segments gen in
  let nsegs = List.length segs in
  let fault_at = Splitmix.int_in gen ~lo:1 ~hi:(nsegs - 1) in
  let fault_kind = random_fault gen in
  let data =
    List.map
      (function
        | Gap g -> (Array.make g S.zero, true)
        | Data len ->
            ( Array.init len (fun _ ->
                  S.of_int (Splitmix.int_in gen ~lo:(-9) ~hi:9)),
              false ))
      segs
  in
  let full = Array.concat (List.map fst data) in
  let expected = Serial.full s full in
  let session =
    Session_.create ?pool ?domains ~checkpoint_every s
  in
  let pos = ref 0 in
  let bad = ref None in
  List.iteri
    (fun i (x, is_gap) ->
      let fault = if i = fault_at then Some fault_kind else None in
      if is_gap then begin
        Session_.skip ?fault session (Array.length x);
        pos := !pos + Array.length x
      end
      else begin
        let y = Session_.process ?fault session x in
        Array.iteri
          (fun j v ->
            if !bad = None && not (S.equal v expected.(!pos + j)) then
              bad :=
                Some
                  (Printf.sprintf
                     "segment %d diverged at absolute index %d (fault %s)" i
                     (!pos + j)
                     (Session.fault_to_string fault_kind)))
          y;
        pos := !pos + Array.length x
      end)
    data;
  let st = Session_.stats session in
  (st, fault_kind, !bad)

let session_campaign ?pool ?domains ?(trials = 200) ?(checkpoint_every = 64)
    ~seed () =
  campaign ~trials ~seed_of:(fun i -> seed + i) (fun seed ->
      let st, _fault, bad =
        session_trial ?pool ?domains ~checkpoint_every seed
      in
      (add_session st, bad))

(* One serve trial: hammer one signature through [Serve.submit] with an
   injected engine fault plan on every request until the breaker trips,
   keep going while it is open (short-circuited to serial), then let the
   cooldown pass and confirm a clean probe closes it.  Every response —
   faulted, degraded, shorted, or probed — must be bitwise identical to
   the serial reference. *)
let serve_trial ?pool ?domains ~(config : Serve.config) seed =
  let gen = Splitmix.create seed in
  let s = random_signature gen in
  let n = Splitmix.int_in gen ~lo:600 ~hi:1500 in
  let x =
    Array.init n (fun _ -> S.of_int (Splitmix.int_in gen ~lo:(-9) ~hi:9))
  in
  let expected = Serial.full s x in
  let server = Serve_.create ~config ?pool ?domains () in
  let k = max 1 (Signature.order s) in
  let m = max (Signature.order s) (min config.chunk_size n) in
  let chunks = (n + m - 1) / m in
  let bad = ref None in
  let submit ?faults tag =
    match Serve_.submit ?faults server s x with
    | Ok y ->
        if y <> expected && !bad = None then
          bad := Some (Printf.sprintf "%s response diverged from serial" tag)
    | Error e ->
        if !bad = None then
          bad :=
            Some (Printf.sprintf "%s failed: %s" tag (Serve.error_to_string e))
  in
  (* Trip: consecutive faulted requests past the threshold.  A purely
     random plan can be benign (no events, or only reorders/delays the
     protocol tolerates), and one clean pooled outcome resets the
     consecutive count — so every plan is seeded with one guaranteed
     carry corruption on a non-final chunk on top of the random draw. *)
  for i = 0 to config.breaker_threshold do
    let base =
      Faults.random ~seed:(seed + (31 * i)) ~chunks ~lanes:k ~max_events:2 ()
    in
    let faults =
      Faults.of_events (corrupt_carry ~chunks ~k i :: base.Faults.events)
    in
    submit ~faults (Printf.sprintf "faulted #%d" i)
  done;
  let tripped = Serve_.breaker_state server s = Serve.Open in
  (* Shorted traffic while open. *)
  submit "shorted";
  (* Cooldown, then a clean probe must close it again. *)
  Unix.sleepf (config.breaker_cooldown +. 0.01);
  submit "probe";
  let closed = Serve_.breaker_state server s = Serve.Closed in
  if not tripped && !bad = None then
    bad := Some "breaker did not trip after threshold faulty outcomes";
  if not closed && !bad = None then
    bad := Some "breaker did not close after a clean half-open probe";
  let mts = Serve_.metrics server in
  ( Metrics.Counter.get mts.Metrics.retries,
    Metrics.Counter.get mts.Metrics.breaker_trips,
    !bad )

let serve_config =
  {
    Serve.default_config with
    parallel_threshold = 256;
    chunk_size = 64;
    check_prefix = 4096;
    retries = 2;
    retry_backoff = 1e-4;
    breaker_threshold = 3;
    breaker_cooldown = 2e-2;
  }

let serve_campaign ?pool ?domains ?(trials = 20) ?(config = serve_config)
    ~seed () =
  campaign ~trials ~seed_of:(fun i -> seed + (1000 * i)) (fun seed ->
      let retries, trips, bad = serve_trial ?pool ?domains ~config seed in
      ( (fun a ->
          {
            a with
            retries = a.retries + retries;
            breaker_trips = a.breaker_trips + trips;
          }),
        bad ))

(* One shard trial: a 2-shard server hammered from two domains with
   every request homed (by affinity) on the same shard — with the steal
   threshold at 1, overlapping pooled requests get stolen by the idle
   shard — while the main thread streams a sticky session through the
   same signature, explicitly migrating it between shards mid-stream
   with state faults injected around the moves.  Every hammer response
   and every session chunk must be bitwise identical to the offline
   serial pass: a steal or migration that loses or skews state cannot
   hide. *)
let shard_trial ?domains ~(config : Serve.config) seed =
  let gen = Splitmix.create seed in
  let s = random_signature gen in
  let n = Splitmix.int_in gen ~lo:600 ~hi:1200 in
  let x =
    Array.init n (fun _ -> S.of_int (Splitmix.int_in gen ~lo:(-9) ~hi:9))
  in
  let expected = Serial.full s x in
  let server = Serve_.create ~config ?domains () in
  Fun.protect ~finally:(fun () -> Serve_.shutdown server) @@ fun () ->
  let k = max 1 (Signature.order s) in
  let m = max (Signature.order s) (min config.chunk_size n) in
  let chunks = (n + m - 1) / m in
  let bad = Atomic.make None in
  let note msg = ignore (Atomic.compare_and_set bad None (Some msg)) in
  let reqs_per_domain = 12 in
  let hammer d () =
    for i = 0 to reqs_per_domain - 1 do
      (* A quarter of the hammer requests carry a guaranteed carry
         corruption: steals must not dodge the guard. *)
      let faults =
        if i land 3 = 0 then
          Some (Faults.of_events [ corrupt_carry ~chunks ~k i ])
        else None
      in
      match Serve_.submit ?faults server s x with
      | Ok y ->
          if y <> expected then
            note
              (Printf.sprintf "hammer domain %d request %d diverged from serial"
                 d i)
      | Error e ->
          note
            (Printf.sprintf "hammer domain %d request %d failed: %s" d i
               (Serve.error_to_string e))
    done
  in
  let doms = Array.init 2 (fun d -> Domain.spawn (hammer d)) in
  (* The sticky session rides alongside the hammer on the same
     signature, moved across shards mid-stream. *)
  let sn = 400 in
  let sx =
    Array.init sn (fun _ -> S.of_int (Splitmix.int_in gen ~lo:(-9) ~hi:9))
  in
  let sexpected = Serial.full s sx in
  let session = Serve_.session ~checkpoint_every:48 server s in
  let home = Serve_.shard_of_signature server s in
  let other = (home + 1) mod Serve_.shard_count server in
  let chunk_len = sn / 4 in
  let do_chunk ?fault i =
    let cx = Array.sub sx (i * chunk_len) chunk_len in
    let y = Serve_.Session.process ?fault session cx in
    Array.iteri
      (fun j v ->
        if not (S.equal v sexpected.((i * chunk_len) + j)) then
          note
            (Printf.sprintf "session chunk %d diverged at absolute index %d" i
               ((i * chunk_len) + j)))
      y
  in
  (try
     do_chunk 0;
     Serve_.migrate_session server session ~shard:other;
     do_chunk ~fault:Session.Corrupt_state 1;
     do_chunk 2;
     Serve_.migrate_session server session ~shard:home;
     do_chunk ~fault:(random_fault gen) 3
   with e -> note (Printexc.to_string e));
  Array.iter Domain.join doms;
  let st = Serve_.Session.stats session in
  let mts = Serve_.metrics server in
  ( st,
    Metrics.Counter.get mts.Metrics.steals,
    Metrics.Counter.get mts.Metrics.session_migrations,
    Atomic.get bad )

let shard_config =
  {
    serve_config with
    Serve.shards = 2;
    steal_threshold = 1;
    max_inflight = 128;
  }

let shard_campaign ?domains ?(trials = 6) ?(config = shard_config) ~seed () =
  campaign ~trials ~seed_of:(fun i -> seed + (1000 * i)) (fun seed ->
      let st, steals, migrations, bad = shard_trial ?domains ~config seed in
      ( (fun a ->
          {
            (add_session st a) with
            steals = a.steals + steals;
            migrations = a.migrations + migrations;
          }),
        bad ))

let merge a b =
  {
    trials = a.trials + b.trials;
    faults_injected = a.faults_injected + b.faults_injected;
    recoveries = a.recoveries + b.recoveries;
    fastforwards = a.fastforwards + b.fastforwards;
    checkpoints = a.checkpoints + b.checkpoints;
    retries = a.retries + b.retries;
    breaker_trips = a.breaker_trips + b.breaker_trips;
    steals = a.steals + b.steals;
    migrations = a.migrations + b.migrations;
    bitwise_ok = a.bitwise_ok + b.bitwise_ok;
    failures = a.failures @ b.failures;
  }
