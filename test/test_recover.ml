(* Tests for the resilience layer: companion-matrix skip-ahead validated
   bitwise against serial replay, checkpoint integrity, streaming
   sessions that recover from injected crashes / state corruption /
   engine faults by restoring the last checkpoint and fast-forwarding
   (pinned via trace spans — never a full replay), a shrinking property
   over session recovery under several faults, gaps and migrations, the
   serve layer's retry policy, the per-signature circuit breaker's
   trip → open → half-open → closed walk, and mid-flight deadline
   cancellation.  A second shrinking property checks the serial kernel
   and the multicore engine against [Companion.at].

   The properties run 100 cases (per scalar), 1000 with
   [QCHECK_LONG=1]; [QCHECK_SEED=N] fixes their seed. *)

module Scalar = Plr_util.Scalar
module Splitmix = Plr_util.Splitmix
module Trace = Plr_trace.Trace
module Faults = Plr_gpusim.Faults
module Serve = Plr_serve.Serve
module Session = Plr_serve.Session
module Metrics = Plr_serve.Metrics
module Resilience = Plr_serve.Resilience

module Comp_i = Plr_robust.Companion.Make (Scalar.Int)
module Comp_f = Plr_robust.Companion.Make (Scalar.F32)
module Srv_i = Serve.Make (Scalar.Int)
module Ses_i = Session.Make (Scalar.Int)
module Si = Plr_serial.Serial.Make (Scalar.Int)
module Sf = Plr_serial.Serial.Make (Scalar.F32)

let int_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

let float_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:fwd ~feedback:fbk

let random_input seed n =
  let g = Splitmix.create seed in
  Array.init n (fun _ -> Splitmix.int_in g ~lo:(-9) ~hi:9)

(* ---------------------------------------------- companion skip-ahead *)

let test_advance_vs_replay () =
  (* Integer scalars: the reassociated matrix powers must be bitwise
     equal to step-by-step serial replay, for zero and constant input. *)
  let sigs =
    [ int_sig [| 1 |] [| 1 |];
      int_sig [| 1 |] [| 2; -1 |];
      int_sig [| 2; 0; -1 |] [| 1; 3; 2 |];
      int_sig [| 1; 1 |] [| 0; 1 |] ]
  in
  let gen = Splitmix.create 97 in
  List.iter
    (fun s ->
      let c = Comp_i.compile s in
      let k = Comp_i.order c in
      List.iter
        (fun steps ->
          let state =
            Array.init k (fun _ -> Splitmix.int_in gen ~lo:(-50) ~hi:50)
          in
          Alcotest.(check (array int))
            (Printf.sprintf "zero-input advance, k=%d steps=%d" k steps)
            (Comp_i.replay c ~state ~steps)
            (Comp_i.advance c ~state ~steps);
          Alcotest.(check (array int))
            (Printf.sprintf "const-input advance, k=%d steps=%d" k steps)
            (Comp_i.replay ~input:7 c ~state ~steps)
            (Comp_i.advance_const c ~state ~input:7 ~steps))
        [ 0; 1; 2; 5; 37; 1000; 123_457 ])
    sigs

let test_advance_float_tolerance () =
  (* Floats: reassociation changes rounding, so agreement is within a
     relative tolerance (a decaying filter keeps magnitudes tame). *)
  let s = float_sig [| 0.5 |] [| 0.9; -0.2 |] in
  let c = Comp_f.compile s in
  let state = [| 0.25; -1.5 |] in
  List.iter
    (fun steps ->
      let want = Comp_f.replay c ~state ~steps in
      let got = Comp_f.advance c ~state ~steps in
      Array.iteri
        (fun i w ->
          let tol = 1e-5 *. (1.0 +. Float.abs w) in
          if Float.abs (w -. got.(i)) > tol then
            Alcotest.failf "steps=%d lane %d: %g vs %g" steps i w got.(i))
        want)
    [ 1; 10; 1000 ]

let test_at_vs_serial () =
  (* The O(log n) single-point query against a materialized serial run,
     for both driving inputs and a signature with FIR taps. *)
  let s = int_sig [| 1; 2 |] [| 2; -1 |] in
  let c = Comp_i.compile s in
  let n = 300 in
  let impulse = Array.init n (fun i -> if i = 0 then 1 else 0) in
  let step = Array.make n 1 in
  let want_imp = Si.full s impulse in
  let want_step = Si.full s step in
  List.iter
    (fun j ->
      Alcotest.(check int)
        (Printf.sprintf "impulse y(%d)" j)
        want_imp.(j)
        (Comp_i.at c j);
      Alcotest.(check int)
        (Printf.sprintf "step y(%d)" j)
        want_step.(j)
        (Comp_i.at ~input:`Step c j))
    [ 0; 1; 2; 3; 7; 64; 299 ]

(* A second oracle for the serial kernel, which every CPU backend now
   shares: over generated int signatures (orders 1–4, 1–3 taps,
   coefficients in [-3, 3], so values wrap), [Serial.full_into] and
   [Multicore.run] on a two-domain pool with chunks near k, driven by a
   unit impulse or a unit step of up to 2^12 elements, equal
   [Companion.at] bitwise at sampled indices, always including 0, k-1, k
   and n-1.  The skip-ahead reassociates the products, which wrapping
   int arithmetic leaves exact. *)
module Companion_oracle = struct
  module M = Plr_multicore.Multicore.Make (Scalar.Int)

  type case = {
    forward : int array;
    feedback : int array;
    input : [ `Impulse | `Step ];
    n : int;
    chunk_size : int;
    samples : int list;
  }

  let show_array a =
    "[|" ^ String.concat "; " (Array.to_list (Array.map string_of_int a)) ^ "|]"

  let print c =
    Printf.sprintf "forward %s feedback %s %s n=%d chunk_size=%d samples=[%s]"
      (show_array c.forward) (show_array c.feedback)
      (match c.input with `Impulse -> "impulse" | `Step -> "step")
      c.n c.chunk_size
      (String.concat "; " (List.map string_of_int c.samples))

  let gen =
    let open QCheck2.Gen in
    let coeffs len =
      map2
        (fun init last -> Array.append init [| last |])
        (array_size (return (len - 1)) (int_range (-3) 3))
        (oneofl [ -3; -2; -1; 1; 2; 3 ])
    in
    let* k = int_range 1 4 and* taps = int_range 1 3 in
    let* forward = coeffs taps and* feedback = coeffs k in
    let* input = oneofl [ `Impulse; `Step ] in
    let* n = int_range 1 (1 lsl 12) in
    let* chunk_size = int_range k (k + 3) in
    let+ samples = list_size (int_range 0 8) (int_range 0 (n - 1)) in
    { forward; feedback; input; n; chunk_size; samples }

  let pool = lazy (Plr_exec.Pool.get ~domains:2 ())

  let holds c =
    let s = int_sig c.forward c.feedback in
    let x =
      Array.init c.n (fun i ->
          match c.input with `Impulse -> if i = 0 then 1 else 0 | `Step -> 1)
    in
    let flat = Array.make c.n 0 in
    Si.full_into s ~src:x ~dst:flat;
    let pooled =
      M.run ~pool:(Lazy.force pool) ~chunk_size:c.chunk_size s x
    in
    let comp = Comp_i.compile s in
    let k = Array.length c.feedback in
    List.iter
      (fun i ->
        if i >= 0 && i < c.n then begin
          let want = Comp_i.at ~input:c.input comp i in
          if flat.(i) <> want then
            QCheck2.Test.fail_reportf "y(%d): Serial.full_into %d, Companion.at %d"
              i flat.(i) want;
          if pooled.(i) <> want then
            QCheck2.Test.fail_reportf "y(%d): Multicore.run %d, Companion.at %d" i
              pooled.(i) want
        end)
      ([ 0; k - 1; k; c.n - 1 ] @ c.samples);
    true

  let test name =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name ~count:100 ~long_factor:10 ~print gen holds)
end

let test_checkpoint_integrity () =
  let s = int_sig [| 1; 1 |] [| 2; -1 |] in
  let c = Comp_i.compile s in
  let cp = Comp_i.Checkpoint.make c ~pos:10 ~carries:[| 3; 4 |] ~input_tail:[| 5 |] in
  Alcotest.(check bool) "fresh snapshot valid" true (Comp_i.Checkpoint.valid cp);
  cp.Comp_i.Checkpoint.carries.(0) <- 99;
  Alcotest.(check bool) "corrupted snapshot detected" false
    (Comp_i.Checkpoint.valid cp)

(* --------------------------------------------------- session recovery *)

(* 200 seeded chaos trials through the streaming session: random
   signatures, random data/gap segment mixes, one mid-stream fault each
   (crash, state corruption, or a seeded engine fault).  Every produced
   element must be bitwise identical to one unfaulted serial pass. *)
let test_session_campaign () =
  let summary = Resilience.session_campaign ~trials:200 ~seed:42 () in
  (match summary.Resilience.failures with
  | [] -> ()
  | (seed, msg) :: _ ->
      Alcotest.failf "%d trial(s) failed; first: seed %d: %s"
        (List.length summary.Resilience.failures) seed msg);
  Alcotest.(check int) "every trial bitwise identical" 200
    summary.Resilience.bitwise_ok;
  Alcotest.(check bool) "recoveries exercised" true
    (summary.Resilience.recoveries > 0);
  Alcotest.(check bool) "fast-forwards exercised" true
    (summary.Resilience.fastforwards > 0);
  Alcotest.(check bool) "checkpoints exercised" true
    (summary.Resilience.checkpoints > 0)

(* One deterministic session walked under the trace sink: the recovery
   must restore the last checkpoint and replay only the short journal
   suffix — pinned by the span arguments — and a long zero-input gap
   must go through the companion fast-forward, not element-wise work. *)
let test_session_recovery_is_incremental () =
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let seg = 64 and nsegs = 6 and gap = 500 in
  let total = (nsegs * seg) + gap in
  let full =
    Array.init total (fun i -> if i < nsegs * seg then (i mod 17) - 8 else 0)
  in
  (* the gap region is zero input, so one serial pass covers everything *)
  let want = Si.full s full in
  Trace.reset ();
  Trace.set_enabled true;
  let sess = Ses_i.create ~domains:2 ~checkpoint_every:100 s in
  let bad = ref None in
  let pos = ref 0 in
  for i = 0 to nsegs - 1 do
    let x = Array.sub full (i * seg) seg in
    (* the fault arrives mid-stream, after checkpoints exist *)
    let fault = if i = nsegs - 1 then Some Session.Crash else None in
    let y = Ses_i.process ?fault sess x in
    Array.iteri
      (fun j v ->
        if !bad = None && v <> want.(!pos + j) then
          bad := Some (Printf.sprintf "diverged at %d" (!pos + j)))
      y;
    pos := !pos + seg
  done;
  Ses_i.skip sess gap;
  Alcotest.(check int) "position tracks the stream" total (Ses_i.position sess);
  Trace.set_enabled false;
  (match !bad with None -> () | Some m -> Alcotest.fail m);
  let events = Trace.collect () in
  let begins name =
    List.filter
      (fun e ->
        e.Trace.kind = Trace.Begin && e.Trace.name = name
        && e.Trace.cat = Trace.Serve)
      events
  in
  Alcotest.(check bool) "checkpoints traced" true (begins "session.checkpoint" <> []);
  let recovers = begins "session.recover" in
  Alcotest.(check bool) "recovery traced" true (recovers <> []);
  List.iter
    (fun e ->
      (* a0 = checkpoint position restored, a1 = data elements replayed *)
      if e.Trace.a0 <= 0 then
        Alcotest.fail "recovery restarted from scratch, not a checkpoint";
      if e.Trace.a1 >= 2 * seg then
        Alcotest.failf "recovery replayed %d elements (full replay?)" e.Trace.a1)
    recovers;
  let ffs = begins "session.ff" in
  Alcotest.(check bool) "gap fast-forward traced" true (ffs <> []);
  List.iter
    (fun e ->
      if e.Trace.a1 < gap - 8 then
        Alcotest.failf "fast-forward skipped only %d of %d" e.Trace.a1 gap)
    ffs;
  (* the stats agree with the spans *)
  let st = Ses_i.stats sess in
  Alcotest.(check int) "one recovery" 1 st.Ses_i.recoveries;
  Alcotest.(check bool) "replayed a suffix only" true
    (st.Ses_i.replayed < 2 * seg)

let test_session_engine_fault_detected () =
  (* An injected engine fault must never leak divergent output: the
     session verifies the faulted chunk, recovers, and re-runs clean. *)
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let n = 400 in
  let x = random_input 5 n in
  let want = Si.full s x in
  let sess = Ses_i.create ~domains:2 ~checkpoint_every:64 s in
  let y0 = Ses_i.process sess (Array.sub x 0 200) in
  let y1 =
    Ses_i.process ~fault:(Session.Engine_fault 1234) sess (Array.sub x 200 200)
  in
  let y = Array.append y0 y1 in
  Alcotest.(check (array int)) "bitwise identical to serial" want y;
  let st = Ses_i.stats sess in
  Alcotest.(check bool) "fault detected" true (st.Ses_i.detected >= 1)

(* A shrinking property over session recovery: a random signature, data
   pieces, several faults of every kind at random pieces, migrations
   between a one-domain and a two-domain pool at random points, and a
   small checkpoint cadence.  Int streams also take gaps; F32 streams
   take none, since companion skip-ahead is exact only to rounding.  The
   outputs are bitwise [Serial.full] over the inputs with every gap as
   zeros, and every state fault is detected. *)
module Recovery_prop (S : Plr_util.Scalar.S) = struct
  module Ses = Session.Make (S)
  module Ser = Plr_serial.Serial.Make (S)

  type seg = Data of S.t array | Gap of int
  type step = { seg : seg; fault : Session.fault option; migrate : bool }

  type case = {
    forward : S.t array;
    feedback : S.t array;
    every : int;
    steps : step list;
  }

  let floating = S.kind = Scalar.Floating

  let show_array a =
    "[|" ^ String.concat "; " (Array.to_list (Array.map S.to_string a)) ^ "|]"

  let print c =
    let step st =
      Printf.sprintf "%s%s%s"
        (match st.seg with
        | Data x -> "data " ^ show_array x
        | Gap g -> Printf.sprintf "gap %d" g)
        (match st.fault with
        | None -> ""
        | Some f -> " fault " ^ Session.fault_to_string f)
        (if st.migrate then " then migrate" else "")
    in
    Printf.sprintf "forward %s feedback %s every %d\n  %s"
      (show_array c.forward) (show_array c.feedback) c.every
      (String.concat "\n  " (List.map step c.steps))

  let gen =
    let open QCheck2.Gen in
    let coeff =
      if floating then map S.of_float (float_range (-1.0) 1.0)
      else map S.of_int (int_range (-2) 2)
    in
    (* Feedback stays stable for floats, and the last coefficient of
       each list is nonzero. *)
    let last =
      if floating then
        map2
          (fun m neg -> S.of_float (if neg then -.m else m))
          (float_range 0.05 0.3) bool
      else map S.of_int (oneofl [ -2; -1; 1; 2 ])
    in
    let fb_coeff =
      if floating then map S.of_float (float_range (-0.3) 0.3) else coeff
    in
    let coeffs c n =
      map2
        (fun a l -> Array.append a [| l |])
        (array_size (return (n - 1)) c)
        last
    in
    let input =
      if floating then map S.of_float (float_range (-1.0) 1.0)
      else map S.of_int (int_range (-9) 9)
    in
    let data = map (fun x -> Data x) (array_size (int_range 0 300) input) in
    let seg =
      if floating then data
      else frequency [ (4, data); (1, map (fun g -> Gap g) (int_range 0 2000)) ]
    in
    let fault =
      frequency
        [ (5, return None);
          (1, return (Some Session.Crash));
          (1, return (Some Session.Corrupt_state));
          (1, map (fun s -> Some (Session.Engine_fault s)) (int_range 0 9999)) ]
    in
    let step =
      map3
        (fun seg fault migrate -> { seg; fault; migrate })
        seg fault (frequency [ (4, return false); (1, return true) ])
    in
    let* k = int_range 1 3 in
    let* taps = int_range 1 3 in
    let* forward = coeffs coeff taps in
    let* feedback = coeffs fb_coeff k in
    let* every = int_range 1 200 in
    let+ steps = list_size (int_range 1 12) step in
    { forward; feedback; every; steps }

  let same (u : S.t) (v : S.t) =
    match S.rep with
    | Scalar.Float_rep _ -> Int64.bits_of_float u = Int64.bits_of_float v
    | _ -> S.equal u v

  let holds c =
    let s =
      Signature.create ~is_zero:S.is_zero ~forward:c.forward
        ~feedback:c.feedback
    in
    let pools =
      [| Plr_exec.Pool.get ~domains:1 (); Plr_exec.Pool.get ~domains:2 () |]
    in
    let sess = Ses.create ~pool:pools.(0) ~checkpoint_every:c.every s in
    let on = ref 0 and state_faults = ref 0 in
    (* Each piece's input (a gap's zeros) with its output, if any. *)
    let pieces =
      List.map
        (fun st ->
          (match st.fault with
          | Some (Session.Crash | Session.Corrupt_state) -> incr state_faults
          | _ -> ());
          let piece =
            match st.seg with
            | Data x -> (x, Some (Ses.process ?fault:st.fault sess x))
            | Gap g ->
                Ses.skip ?fault:st.fault sess g;
                (Array.make g S.zero, None)
          in
          if st.migrate then begin
            on := 1 - !on;
            Ses.migrate sess ~pool:pools.(!on)
          end;
          piece)
        c.steps
    in
    let expected = Ser.full s (Array.concat (List.map fst pieces)) in
    let pos = ref 0 in
    List.iter
      (fun (x, out) ->
        Option.iter
          (fun y ->
            Array.iteri
              (fun j v ->
                if not (same expected.(!pos + j) v) then
                  QCheck2.Test.fail_reportf "output %d = %s, Serial.full = %s"
                    (!pos + j) (S.to_string v)
                    (S.to_string expected.(!pos + j)))
              y)
          out;
        pos := !pos + Array.length x)
      pieces;
    let st = Ses.stats sess in
    if st.Ses.position <> !pos then
      QCheck2.Test.fail_reportf "position %d after %d elements" st.Ses.position
        !pos;
    if st.Ses.detected < !state_faults then
      QCheck2.Test.fail_reportf "%d state faults injected, %d detected"
        !state_faults st.Ses.detected;
    true

  let test name =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name ~count:100 ~long_factor:10 ~print gen holds)
end

module Recovery_int = Recovery_prop (Scalar.Int)
module Recovery_f32 = Recovery_prop (Scalar.F32)

(* ----------------------------------------------------- retry + breaker *)

(* A guaranteed-harmful plan: one carry corruption on a non-final chunk
   (purely random plans can be benign, which would reset the breaker's
   consecutive count). *)
let harmful_faults ~chunks ~lane i =
  Faults.of_events
    [ { Faults.kind = Faults.Corrupt_carry;
        chunk = i mod max 1 (chunks - 1);
        lane;
        delay = 1 } ]

let breaker_config =
  { Serve.default_config with
    Serve.parallel_threshold = 256;
    chunk_size = 64;
    check_prefix = 8192;
    retries = 0;
    breaker_threshold = 2;
    breaker_cooldown = 0.05 }

let test_breaker_walk () =
  (* Deterministic trip → open → half-open → closed walk. *)
  let server = Srv_i.create ~config:breaker_config ~domains:2 () in
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let n = 800 in
  let x = random_input 7 n in
  let want = Si.full s x in
  let chunks = (n + 63) / 64 in
  let submit ?faults tag =
    match Srv_i.submit ?faults server s x with
    | Ok y -> Alcotest.(check (array int)) (tag ^ " bitwise") want y
    | Error e -> Alcotest.failf "%s failed: %s" tag (Serve.error_to_string e)
  in
  Alcotest.(check string) "starts closed" "closed"
    (Serve.breaker_state_to_string (Srv_i.breaker_state server s));
  (* threshold consecutive degradations trip it (the guard catches each
     corruption and degrades, so every response is still correct) *)
  for i = 0 to breaker_config.Serve.breaker_threshold - 1 do
    submit ~faults:(harmful_faults ~chunks ~lane:(i mod 2) i)
      (Printf.sprintf "faulted #%d" i)
  done;
  Alcotest.(check string) "tripped open" "open"
    (Serve.breaker_state_to_string (Srv_i.breaker_state server s));
  let m = Srv_i.metrics server in
  Alcotest.(check int) "trip counted" 1
    (Metrics.Counter.get m.Metrics.breaker_trips);
  (* traffic while open is short-circuited to serial — still correct *)
  submit "shorted";
  Alcotest.(check bool) "short-circuit counted" true
    (Metrics.Counter.get m.Metrics.breaker_shorted >= 1);
  Alcotest.(check string) "still open inside cooldown" "open"
    (Serve.breaker_state_to_string (Srv_i.breaker_state server s));
  (* after the cooldown one clean probe closes it *)
  Unix.sleepf (breaker_config.Serve.breaker_cooldown +. 0.02);
  submit "probe";
  Alcotest.(check string) "probe closed it" "closed"
    (Serve.breaker_state_to_string (Srv_i.breaker_state server s))

let test_breaker_reopens_on_faulty_probe () =
  let server = Srv_i.create ~config:breaker_config ~domains:2 () in
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let n = 700 in
  let x = random_input 9 n in
  let chunks = (n + 63) / 64 in
  for i = 0 to breaker_config.Serve.breaker_threshold - 1 do
    ignore (Srv_i.submit ~faults:(harmful_faults ~chunks ~lane:0 i) server s x)
  done;
  Alcotest.(check string) "tripped" "open"
    (Serve.breaker_state_to_string (Srv_i.breaker_state server s));
  Unix.sleepf (breaker_config.Serve.breaker_cooldown +. 0.02);
  (* the half-open probe itself is faulted → re-trip, not close *)
  ignore (Srv_i.submit ~faults:(harmful_faults ~chunks ~lane:1 5) server s x);
  Alcotest.(check string) "faulty probe re-opened" "open"
    (Serve.breaker_state_to_string (Srv_i.breaker_state server s));
  let m = Srv_i.metrics server in
  Alcotest.(check int) "both trips counted" 2
    (Metrics.Counter.get m.Metrics.breaker_trips)

(* A dropped local-carry publication on chunk 1: chunks 2 and 3 sit in
   the same look-back window and spin on that local, so the engine
   detects the stall and fails loudly — the kind of fault that surfaces
   as [Failed] even without the guard.  (A window-boundary chunk would
   be benign: its consumers read the global carry instead.) *)
let stall_faults ~chunks =
  assert (chunks >= 3);
  Faults.of_events
    [ { Faults.kind = Faults.Drop_local; chunk = 1; lane = 0; delay = 0 } ]

let test_retry_recovers_transient_fault () =
  (* Without the guard, a dropped carry surfaces as [Failed]; the retry
     policy re-runs the (transient) request cleanly and succeeds. *)
  let config =
    { breaker_config with
      Serve.guard = false;
      retries = 2;
      retry_backoff = 1e-5;
      breaker_threshold = 100 (* keep the breaker out of this test *) }
  in
  let server = Srv_i.create ~config ~domains:2 () in
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let n = 900 in
  let x = random_input 13 n in
  let want = Si.full s x in
  let chunks = (n + 63) / 64 in
  (match Srv_i.submit ~faults:(stall_faults ~chunks) server s x with
  | Ok y -> Alcotest.(check (array int)) "retried run bitwise" want y
  | Error e -> Alcotest.failf "retry did not recover: %s" (Serve.error_to_string e));
  let m = Srv_i.metrics server in
  Alcotest.(check bool) "a retry happened" true
    (Metrics.Counter.get m.Metrics.retries >= 1);
  (* with retries disabled the same request fails outright *)
  let server0 = Srv_i.create ~config:{ config with Serve.retries = 0 } ~domains:2 () in
  match Srv_i.submit ~faults:(stall_faults ~chunks) server0 s x with
  | Error (Serve.Failed _) -> ()
  | Ok _ -> Alcotest.fail "faulted run without retries must fail"
  | Error e -> Alcotest.failf "expected Failed, got %s" (Serve.error_to_string e)

(* [queue_wait] is measured per attempt, from the route decision to the
   shard's exec lock: on an idle shard neither the failed first attempt
   nor the backoff before the retry (at least 25 ms here) counts as
   queueing. *)
let test_queue_wait_per_attempt () =
  let config =
    { breaker_config with
      Serve.guard = false;
      retries = 1;
      retry_backoff = 0.05;
      breaker_threshold = 100 }
  in
  let server = Srv_i.create ~config ~domains:2 () in
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let n = 900 in
  let x = random_input 13 n in
  let chunks = (n + 63) / 64 in
  (match Srv_i.submit ~faults:(stall_faults ~chunks) server s x with
  | Ok y -> Alcotest.(check (array int)) "retried run bitwise" (Si.full s x) y
  | Error e -> Alcotest.failf "retry failed: %s" (Serve.error_to_string e));
  let m = Srv_i.metrics server in
  Alcotest.(check int) "one retry" 1 (Metrics.Counter.get m.Metrics.retries);
  Alcotest.(check int) "one queue wait per attempt" 2
    (Metrics.Histogram.count m.Metrics.queue_wait);
  let worst = Metrics.Histogram.percentile m.Metrics.queue_wait 1.0 in
  if worst >= 0.025 then
    Alcotest.failf "an attempt queued %.3f ms on an idle shard" (worst *. 1e3)

let test_serve_campaign () =
  let summary = Resilience.serve_campaign ~trials:5 ~seed:3 () in
  (match summary.Resilience.failures with
  | [] -> ()
  | (seed, msg) :: _ -> Alcotest.failf "serve trial seed %d: %s" seed msg);
  Alcotest.(check int) "all trials bitwise" 5 summary.Resilience.bitwise_ok;
  Alcotest.(check bool) "breaker exercised" true
    (summary.Resilience.breaker_trips >= 5)

(* ------------------------------------------------- deadline mid-flight *)

(* Set an environment variable for the duration of [f] (the JIT reads
   its switch per call, never memoized). *)
let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv key (Option.value ~default:"" old))

let test_midflight_deadline () =
  (* A deadline that can only fire after execution has started must cut
     the run at a chunk boundary: [Deadline_exceeded] plus the
     mid-flight counter (not the never-started path).  The input grows
     until the run is long enough for the deadline to land mid-flight,
     so the pin is robust to fast machines.  The JIT is switched off: a
     kernel already in the on-disk cache would answer before the
     deadline, and the path under test is the pooled look-back's
     cancellation. *)
  with_env "PLR_JIT" "off" @@ fun () ->
  let config =
    { Serve.default_config with
      Serve.parallel_threshold = 1024;
      chunk_size = 1024;
      guard = false;
      retries = 2 }
  in
  let s = int_sig [| 1 |] [| 1 |] in
  let rec attempt n tries =
    let server = Srv_i.create ~config ~domains:2 () in
    let x = random_input 17 n in
    let deadline = Unix.gettimeofday () +. 2e-3 in
    let r = Srv_i.submit ~deadline server s x in
    let m = Srv_i.metrics server in
    let midflight = Metrics.Counter.get m.Metrics.cancelled_midflight in
    match r with
    | Error Serve.Deadline_exceeded when midflight >= 1 -> ()
    | Error Serve.Deadline_exceeded when tries > 0 ->
        (* cut before execution started — not the path under test *)
        attempt n (tries - 1)
    | Ok _ when tries > 0 && n < 1 lsl 25 ->
        (* machine finished inside the deadline; make the run longer *)
        attempt (n * 4) (tries - 1)
    | Error Serve.Deadline_exceeded ->
        Alcotest.fail "deadline always fired before execution started"
    | Ok _ -> Alcotest.fail "run never outlasted the deadline"
    | Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_to_string e)
  in
  attempt (1 lsl 22) 6

let () =
  Alcotest.run "recover"
    [ ( "companion",
        [ Alcotest.test_case "advance vs replay (bitwise)" `Quick
            test_advance_vs_replay;
          Alcotest.test_case "float advance within tolerance" `Quick
            test_advance_float_tolerance;
          Alcotest.test_case "at vs serial" `Quick test_at_vs_serial;
          Alcotest.test_case "checkpoint integrity" `Quick
            test_checkpoint_integrity;
          Companion_oracle.test
            "Serial.full_into and Multicore.run = Companion.at" ] );
      ( "session",
        [ Alcotest.test_case "200-trial chaos campaign" `Quick
            test_session_campaign;
          Alcotest.test_case "recovery is checkpoint + fast-forward" `Quick
            test_session_recovery_is_incremental;
          Alcotest.test_case "engine fault detected and recovered" `Quick
            test_session_engine_fault_detected;
          Recovery_int.test "int faults, gaps and migrations = Serial.full";
          Recovery_f32.test "f32 faults and migrations = Serial.full" ] );
      ( "serve",
        [ Alcotest.test_case "breaker trip/open/half-open/closed" `Quick
            test_breaker_walk;
          Alcotest.test_case "faulty probe re-opens" `Quick
            test_breaker_reopens_on_faulty_probe;
          Alcotest.test_case "retry recovers a transient fault" `Quick
            test_retry_recovers_transient_fault;
          Alcotest.test_case "queue wait is per attempt" `Quick
            test_queue_wait_per_attempt;
          Alcotest.test_case "serve chaos campaign" `Quick test_serve_campaign;
          Alcotest.test_case "mid-flight deadline cancellation" `Quick
            test_midflight_deadline ] ) ]
