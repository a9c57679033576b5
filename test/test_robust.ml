(* Tests for the robustness layer: stability classification, guarded
   execution with degradation, the fault-injection chaos harness, the
   domain-leak fix in the multicore backend, the CLI's parser error
   paths, and a shrinking property holding the guard's unboxed float
   checks to their boxed forms.

   The property runs 300 cases per scalar, 3000 with [QCHECK_LONG=1];
   [QCHECK_SEED=N] fixes its seed. *)

module Scalar = Plr_util.Scalar
module Stability = Plr_robust.Stability
module Guard = Plr_robust.Guard
module Chaos = Plr_robust.Chaos
module Faults = Plr_gpusim.Faults

module Guard_i = Guard.Make (Scalar.Int)
module Guard_f = Guard.Make (Scalar.F32)
module Chaos_i = Chaos.Make (Scalar.Int)
module Mi = Plr_multicore.Multicore.Make (Scalar.Int)
module Si = Plr_serial.Serial.Make (Scalar.Int)
module Stream_i = Plr_multicore.Stream.Make (Scalar.Int)
module Engine_i = Plr_core.Engine.Make (Scalar.Int)

let check_ints = Alcotest.(check (array int))
let int_sig fwd fbk = Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk
let float_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:fwd ~feedback:fbk

let spec = Plr_gpusim.Spec.titan_x

(* ------------------------------------------------------------- stability *)

let test_stability_classes () =
  let cls s = (Stability.analyze s).Stability.cls in
  Alcotest.(check string) "low-pass filter is stable" "stable"
    (Stability.to_string (cls (float_sig [| 0.2 |] [| 0.8 |])));
  Alcotest.(check string) "prefix sum is marginal" "marginal"
    (Stability.to_string (cls (float_sig [| 1.0 |] [| 1.0 |])));
  Alcotest.(check string) "order-2 prefix sum is marginal" "marginal"
    (Stability.to_string (cls (float_sig [| 1.0 |] [| 2.0; -1.0 |])));
  Alcotest.(check string) "order-3 prefix sum is marginal" "marginal"
    (Stability.to_string (cls (float_sig [| 1.0 |] [| 3.0; -3.0; 1.0 |])));
  Alcotest.(check string) "fibonacci is unstable" "unstable"
    (Stability.to_string (cls (float_sig [| 1.0 |] [| 1.0; 1.0 |])))

let test_stability_radius () =
  let r = Stability.spectral_radius (float_sig [| 1.0 |] [| 1.0; 1.0 |]) in
  if Float.abs (r -. 1.6180339887) > 1e-6 then
    Alcotest.failf "fibonacci radius %g, expected the golden ratio" r;
  let r = Stability.spectral_radius (float_sig [| 0.2 |] [| 0.8 |]) in
  if Float.abs (r -. 0.8) > 1e-9 then Alcotest.failf "radius %g, expected 0.8" r

let test_stability_predictions () =
  (* Fibonacci factors grow like φ^q: float32 overflow near index 186. *)
  let r = Stability.analyze (float_sig [| 1.0 |] [| 1.0; 1.0 |]) in
  (match r.Stability.overflow_f32 with
  | Some i when i > 150 && i < 220 -> ()
  | Some i -> Alcotest.failf "f32 overflow predicted at %d, expected ~186" i
  | None -> Alcotest.fail "expected an f32 overflow prediction");
  (match r.Stability.overflow_f64 with
  | Some i when i > 1000 && i < 1600 -> ()
  | Some i -> Alcotest.failf "f64 overflow predicted at %d, expected ~1476" i
  | None -> Alcotest.fail "expected an f64 overflow prediction");
  (* 0.8^q decays below the smallest normal float32 near index 392. *)
  let r = Stability.analyze (float_sig [| 0.2 |] [| 0.8 |]) in
  (match r.Stability.decay_index with
  | Some i when i > 350 && i < 430 -> ()
  | Some i -> Alcotest.failf "decay at %d, expected ~392" i
  | None -> Alcotest.fail "expected a decay index");
  Alcotest.(check (option int)) "stable factors never overflow" None
    r.Stability.overflow_f32

(* ----------------------------------------------------------------- guard *)

let gen = Plr_util.Splitmix.create 2026
let random_ints n = Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-9) ~hi:9)

let test_guard_nominal () =
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let input = random_ints 4000 in
  let o = Guard_i.run ~check:Guard.Full (Guard_i.multicore_runner ()) s input in
  Alcotest.(check bool) "ok" true o.Guard_i.ok;
  Alcotest.(check bool) "not degraded" false o.Guard_i.degraded;
  check_ints "output is the serial result" (Si.full s input) o.Guard_i.output;
  match o.Guard_i.attempts with
  | [ { Guard.stage = Guard.Parallel; violation = None } ] -> ()
  | _ -> Alcotest.fail "expected a single accepted parallel attempt"

let test_guard_detects_corruption () =
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let input = random_ints 400 in
  let faults =
    Faults.of_events
      [ { Faults.kind = Faults.Corrupt_carry; chunk = 1; lane = 0; delay = 0 } ]
  in
  let runner = Guard_i.multicore_runner ~faults ~chunk_size:16 () in
  let o = Guard_i.run ~check:Guard.Full runner s input in
  Alcotest.(check bool) "recovered" true o.Guard_i.ok;
  Alcotest.(check bool) "degraded" true o.Guard_i.degraded;
  check_ints "fallback output is exact" (Si.full s input) o.Guard_i.output;
  (* chunk 1's corrupted carry is folded inside the look-back window, so
     the engine's carry verification raises before the guard compares *)
  (match o.Guard_i.attempts with
  | { Guard.stage = Guard.Parallel; violation = Some (Guard.Engine_error _) } :: _ -> ()
  | _ -> Alcotest.fail "expected the parallel attempt to record an engine error")

let test_guard_unstable_float_flags () =
  (* y(i) = x(i) + 2 y(i-1): factors 2^q overflow float32 long before
     n = 512.  The guard must return a degradation outcome, never a silent
     NaN/Inf array. *)
  let s = float_sig [| 1.0 |] [| 2.0 |] in
  let input = Array.make 512 1.0 in
  let o = Guard_f.run ~check:Guard.Full (Guard_f.multicore_runner ()) s input in
  Alcotest.(check bool) "stability class is unstable" true
    (o.Guard_f.stability.Stability.cls = Stability.Unstable);
  Alcotest.(check bool) "guard flags the divergence" false o.Guard_f.ok;
  Alcotest.(check bool) "degraded" true o.Guard_f.degraded;
  (* the doomed same-precision attempts were skipped by prediction *)
  (match o.Guard_f.attempts with
  | { Guard.stage = Guard.Parallel; violation = Some (Guard.Predicted_overflow _) }
    :: { Guard.stage = Guard.Sequential_fallback;
         violation = Some (Guard.Predicted_overflow _) }
    :: { Guard.stage = Guard.Float64_serial; violation = Some (Guard.Non_finite _) }
    :: [] -> ()
  | _ -> Alcotest.fail "expected predicted-overflow skips then a non-finite report")

let test_guard_unstable_int_wraps_exactly () =
  (* Integer n-nacci factors wrap modulo the word size — the defined
     semantics — so the parallel engines still match serial exactly and the
     guard accepts the run while reporting the unstable class. *)
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let input = random_ints 8000 in
  let o = Guard_i.run ~check:Guard.Full (Guard_i.multicore_runner ()) s input in
  Alcotest.(check bool) "ok" true o.Guard_i.ok;
  Alcotest.(check bool) "not degraded" false o.Guard_i.degraded;
  Alcotest.(check bool) "class is unstable" true
    (o.Guard_i.stability.Stability.cls = Stability.Unstable)

let test_guard_gpusim_backend () =
  let s = int_sig [| 1 |] [| 3; -3; 1 |] in
  let input = random_ints 2048 in
  let o =
    Guard_i.run ~check:Guard.Full
      (Guard_i.gpusim_runner ~threads_per_block:8 ~x:2 ~lookback_window:4 ~spec ())
      s input
  in
  Alcotest.(check bool) "ok" true o.Guard_i.ok;
  Alcotest.(check bool) "not degraded" false o.Guard_i.degraded

(* ------------------------------------------------------- fault injection *)

let test_engine_deadlock_detected () =
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let input = random_ints 256 in
  let plan = Engine_i.P.compile_with ~lookback_window:4 ~spec ~n:256
      ~threads_per_block:4 ~x:2 s in
  let faults =
    Faults.of_events
      [ { Faults.kind = Faults.Drop_local; chunk = 1; lane = 0; delay = 0 } ]
  in
  match Engine_i.run_plan ~faults ~spec plan input with
  | _ -> Alcotest.fail "expected a protocol stall"
  | exception Plr_core.Engine.Protocol_stall _ -> ()

let test_multicore_drop_detected () =
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let input = random_ints 256 in
  let faults =
    Faults.of_events
      [ { Faults.kind = Faults.Drop_local; chunk = 2; lane = 0; delay = 0 } ]
  in
  match Mi.run ~faults ~chunk_size:16 s input with
  | _ -> Alcotest.fail "expected the lost publication to be detected"
  | exception Plr_multicore.Multicore.Fault_detected _ -> ()

let test_multicore_lookback_fault_classes () =
  (* Pin every fault class against the single-pass look-back protocol.
     n = 256 with 16-element chunks gives 16 chunks; the faulted window is
     [Multicore.faulted_lookback_window] = 4, so chunk c reads the global
     carries of chunk (c/4)*4 - 1 and the locals published after it. *)
  Alcotest.(check int) "window this pin is built for" 4
    Plr_multicore.Multicore.faulted_lookback_window;
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let input = random_ints 256 in
  let expected = Si.full s input in
  let run kind chunk =
    let faults =
      Faults.of_events [ { Faults.kind; chunk; lane = 0; delay = 0 } ]
    in
    Mi.run ~faults ~chunk_size:16 s input
  in
  let expect_stall label kind chunk =
    match run kind chunk with
    | _ -> Alcotest.failf "%s: expected Fault_detected" label
    | exception Plr_multicore.Multicore.Fault_detected _ -> ()
  in
  let expect_exact label kind chunk =
    check_ints (label ^ ": routed around, bit-exact") expected (run kind chunk)
  in
  let expect_divergence label kind chunk =
    match run kind chunk with
    | out ->
        if out = expected then
          Alcotest.failf "%s: fault did not perturb the output" label
    | exception e ->
        Alcotest.failf "%s: unexpected exception %s" label (Printexc.to_string e)
  in
  (* a dropped aggregate that an in-window successor must fold: stall *)
  expect_stall "Drop_local mid-window" Faults.Drop_local 2;
  (* a dropped inclusive publication on a window boundary: the whole next
     window stalls *)
  expect_stall "Drop_global on boundary" Faults.Drop_global 3;
  (* an aggregate on the window's last chunk is never folded (successors
     start from its global), so dropping it is benign *)
  expect_exact "Drop_local on boundary" Faults.Drop_local 3;
  (* an inclusive publication off the boundary is never looked back at *)
  expect_exact "Drop_global mid-window" Faults.Drop_global 4;
  (* a corrupted carry that an in-window successor folds fails the
     before-commit verification *)
  expect_stall "Corrupt_carry mid-window" Faults.Corrupt_carry 1;
  (* on a window boundary only the inclusive carry is read, unverified:
     corrupted carries there and poisoned chunks are visible as
     divergence (the guard layer converts that into degradation, chaos
     pins zero-silent) *)
  expect_divergence "Corrupt_carry on boundary" Faults.Corrupt_carry 3;
  expect_divergence "Poison_chunk" Faults.Poison_chunk 2

let test_engine_benign_faults_exact () =
  (* Reordering and flag delays are schedules the decoupled look-back
     admits: output must equal the in-order run bit for bit. *)
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let input = random_ints 512 in
  let plan = Engine_i.P.compile_with ~lookback_window:4 ~spec ~n:512
      ~threads_per_block:4 ~x:2 s in
  let expected = (Engine_i.run_plan ~spec plan input).Engine_i.output in
  for seed = 0 to 19 do
    let faults =
      Faults.random ~seed ~chunks:64 ~lanes:2 ~kinds:Chaos.benign_kinds
        ~max_events:4 ()
    in
    check_ints
      (Format.asprintf "benign schedule %d (%a)" seed Faults.pp faults)
      expected
      (Engine_i.run_plan ~faults ~spec plan input).Engine_i.output
  done

let assert_campaign label (summary : Chaos.summary) =
  if summary.Chaos.silent > 0 then
    Alcotest.failf "%s: %d silent divergences" label summary.Chaos.silent;
  Alcotest.(check int)
    (label ^ ": every trial classified")
    summary.Chaos.trials
    (summary.Chaos.exact + summary.Chaos.degraded + summary.Chaos.detected)

let test_chaos_benign_campaigns () =
  let s = int_sig [| 1 |] [| 2; -1 |] in
  List.iter
    (fun target ->
      let summary, _ =
        Chaos_i.campaign ~trials:40 ~kinds:Chaos.benign_kinds ~seed:100 ~target s
      in
      assert_campaign ("benign " ^ Chaos.target_to_string target) summary;
      Alcotest.(check int)
        (Chaos.target_to_string target ^ ": benign faults recover exactly")
        summary.Chaos.trials summary.Chaos.exact)
    [ Chaos.Gpusim; Chaos.Multicore ]

let test_chaos_full_campaigns () =
  (* ≥ 200 seeded trials across both look-back paths with the full fault
     mix: no hang (the run completing is the liveness assertion), no
     silent divergence, and the corrupting faults actually fire. *)
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let total_injected = ref 0 in
  let total_degraded = ref 0 in
  List.iter
    (fun target ->
      let summary, _ = Chaos_i.campaign ~trials:120 ~seed:1 ~target s in
      assert_campaign ("full " ^ Chaos.target_to_string target) summary;
      total_injected := !total_injected + summary.Chaos.injected;
      total_degraded := !total_degraded + summary.Chaos.degraded)
    [ Chaos.Gpusim; Chaos.Multicore ];
  if !total_injected < 120 then
    Alcotest.failf "only %d/240 trials had injected faults" !total_injected;
  if !total_degraded < 10 then
    Alcotest.failf "only %d trials exercised the degradation path" !total_degraded

(* --------------------------------------- multicore robustness (satellite) *)

let test_parallel_ranges_joins_on_exception () =
  (* A range function that raises in one domain: the exception must
     propagate (not crash the runtime), and repeated use must not leak
     domains — 200 iterations would exhaust the default domain budget if
     any spawned domain were left unjoined. *)
  for _ = 1 to 200 do
    let s = int_sig [| 1 |] [| 1 |] in
    (try
       ignore
         (Mi.run ~domains:4 ~chunk_size:4
            (Signature.map (fun c -> c) s)
            (Array.init 64 (fun i -> i)));
       ()
     with _ -> Alcotest.fail "unexpected failure in clean run")
  done;
  (* now with an exception thrown mid-solve via a poisoned signature: use
     the fault plan's dropped carry, which raises inside the pipeline *)
  let faults =
    Faults.of_events
      [ { Faults.kind = Faults.Drop_local; chunk = 0; lane = 0; delay = 0 } ]
  in
  for _ = 1 to 50 do
    match
      Mi.run ~faults ~domains:4 ~chunk_size:8
        (int_sig [| 1 |] [| 1 |])
        (Array.init 64 (fun i -> i))
    with
    | _ -> Alcotest.fail "expected Fault_detected"
    | exception Plr_multicore.Multicore.Fault_detected _ -> ()
  done

let test_degenerate_inputs_randomized () =
  (* Seeded property sweep over the degenerate shapes: empty input,
     n < k, chunk_size < k, and single-element chunks. *)
  let g = Plr_util.Splitmix.create 424242 in
  for _ = 1 to 150 do
    let k = Plr_util.Splitmix.int_in g ~lo:1 ~hi:5 in
    let feedback =
      Array.init k (fun i ->
          if i = k - 1 then
            let c = Plr_util.Splitmix.int_in g ~lo:(-3) ~hi:3 in
            if c = 0 then 1 else c
          else Plr_util.Splitmix.int_in g ~lo:(-3) ~hi:3)
    in
    let s = int_sig [| 1 |] feedback in
    let shape = Plr_util.Splitmix.int_in g ~lo:0 ~hi:3 in
    let n, chunk_size =
      match shape with
      | 0 -> (0, 1 + Plr_util.Splitmix.int_in g ~lo:0 ~hi:10)   (* empty *)
      | 1 -> (Plr_util.Splitmix.int_in g ~lo:0 ~hi:(k - 1), k)  (* n < k *)
      | 2 ->
          ( Plr_util.Splitmix.int_in g ~lo:1 ~hi:200,
            max 1 (Plr_util.Splitmix.int_in g ~lo:1 ~hi:k) )    (* chunk < k *)
      | _ -> (Plr_util.Splitmix.int_in g ~lo:1 ~hi:200, 1)      (* unit chunks *)
    in
    let input =
      Array.init n (fun _ -> Plr_util.Splitmix.int_in g ~lo:(-9) ~hi:9)
    in
    let domains = Plr_util.Splitmix.int_in g ~lo:1 ~hi:4 in
    let expected = Si.full s input in
    check_ints
      (Printf.sprintf "multicore k=%d n=%d chunk=%d" k n chunk_size)
      expected
      (Mi.run ~domains ~chunk_size s input);
    (* stream over random buffer sizes, including 1 *)
    let stream = Stream_i.create s in
    let buffer = 1 + Plr_util.Splitmix.int_in g ~lo:0 ~hi:7 in
    let got = ref [] in
    let pos = ref 0 in
    while !pos < n do
      let len = min buffer (n - !pos) in
      got := Stream_i.process stream (Array.sub input !pos len) :: !got;
      pos := !pos + len
    done;
    check_ints
      (Printf.sprintf "stream k=%d n=%d buffer=%d" k n buffer)
      expected
      (Array.concat (List.rev !got))
  done

let test_unstable_guard_never_masks () =
  (* Random unstable float signatures: the guard must flag, never return
     an accepted non-finite array. *)
  let g = Plr_util.Splitmix.create 555 in
  for _ = 1 to 20 do
    let b = Plr_util.Splitmix.float_in g ~lo:1.5 ~hi:3.0 in
    let b = if Plr_util.Splitmix.int g ~bound:2 = 0 then b else -.b in
    let s = float_sig [| 1.0 |] [| b |] in
    let input =
      Array.init 512 (fun _ -> Plr_util.Splitmix.float_in g ~lo:0.5 ~hi:1.0)
    in
    let o = Guard_f.run ~check:Guard.Full (Guard_f.multicore_runner ()) s input in
    Alcotest.(check bool) "classified unstable" true
      (o.Guard_f.stability.Stability.cls = Stability.Unstable);
    let has_nonfinite =
      Array.exists (fun v -> not (Float.is_finite v)) o.Guard_f.output
    in
    if o.Guard_f.ok && has_nonfinite then
      Alcotest.fail "guard accepted a non-finite output array"
  done

(* ------------------------------------------ unboxed checks (properties) *)

(* The guard's float checks loop over the flat array and take their
   reference from the serial kernel.  The boxed forms they replaced stay
   here as the oracle: a first non-finite index, and a first divergence
   from the boxed [Serial.full] prefix under [S.approx_equal].  Outputs
   are the serial result with edits (NaN, +-inf, -0.0, binary32
   subnormals, small and large shifts); inputs carry the same edge
   values. *)

let show_float v =
  if Float.is_nan v then Printf.sprintf "nan(%Lx)" (Int64.bits_of_float v)
  else Printf.sprintf "%h" v

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qcheck ~name ~print gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300 ~long_factor:10 ~print gen prop)

module Guard_props (S : Scalar.S with type t = float) = struct
  module G = Guard.Make (S)
  module Serial = Plr_serial.Serial.Make (S)

  let show_array a =
    "[|" ^ String.concat "; " (Array.to_list (Array.map show_float a)) ^ "|]"

  let edges =
    [ Float.nan; Float.signaling_nan; Int64.float_of_bits 0xFFF8_0000_0000_0000L;
      infinity; neg_infinity; -0.0; 0x1p-149; -0x1.fffffcp-127; 0x1p-126 ]

  let value =
    QCheck2.Gen.(
      frequency [ (8, map S.of_float (float_range (-1.5) 1.5)); (1, oneofl edges) ])

  let coeffs len =
    QCheck2.Gen.(
      map2
        (fun init last -> Array.append init [| (if last = 0.0 then 1.0 else last) |])
        (array_size (return (len - 1)) (map S.of_float (float_range (-1.2) 1.2)))
        (map S.of_float (float_range (-1.2) 1.2)))

  type case = {
    forward : float array;
    feedback : float array;
    x : float array;
    edits : (int * float) list;  (** output index (mod n), new value *)
    prefix : int;
    tol : float;
  }

  let print c =
    Printf.sprintf "{forward=%s; feedback=%s; x=%s; edits=[%s]; prefix=%d; tol=%g}"
      (show_array c.forward) (show_array c.feedback) (show_array c.x)
      (String.concat "; "
         (List.map (fun (i, v) -> Printf.sprintf "%d:%s" i (show_float v)) c.edits))
      c.prefix c.tol

  let edit =
    QCheck2.Gen.(
      pair nat
        (frequency
           [ (2, oneofl edges); (2, float_range (-1e-2) 1e-2);
             (1, float_range (-1e6) 1e6) ]))

  let gen =
    let open QCheck2.Gen in
    let* k = int_range 1 3 and* taps = int_range 1 3 in
    let* forward = coeffs taps and* feedback = coeffs k in
    let* x = array_size (int_range 0 60) value in
    let* edits = list_size (int_range 0 3) edit in
    let* prefix = int_range 0 70 and* tol = oneofl [ 1e-3; 0.0 ] in
    return { forward; feedback; x; edits; prefix; tol }

  (* Shift edits move the serial value, so some stay inside [tol]. *)
  let output c serial =
    let out = Array.copy serial and n = Array.length serial in
    List.iter
      (fun (i, v) ->
        if n > 0 then
          let i = i mod n in
          out.(i) <-
            (if Float.is_finite v && Float.abs v <= 1e-2 then S.add out.(i) v
             else v))
      c.edits;
    out

  let boxed_non_finite out =
    let bad = ref None in
    Array.iteri
      (fun i v -> if !bad = None && not (Float.is_finite v) then bad := Some i)
      out;
    !bad

  let boxed_divergence ~tol reference out =
    let bad = ref None in
    Array.iteri
      (fun i expected ->
        if !bad = None && not (S.approx_equal ~tol expected out.(i)) then
          bad := Some (i, out.(i), expected))
      reference;
    !bad

  (* A stable report: the guard runs the given output as its parallel
     attempt, never skipping it on a predicted overflow. *)
  let stability = Stability.analyze (float_sig [| 1.0 |] [| 0.5 |])

  let agrees c =
    let s = float_sig c.forward c.feedback in
    let n = Array.length c.x in
    let serial = Serial.full s c.x in
    let out = output c serial in
    let want_nf = boxed_non_finite out in
    if G.scan_non_finite out <> want_nf then
      QCheck2.Test.fail_reportf "scan_non_finite disagrees with the boxed scan";
    let reference = Serial.full s (Array.sub c.x 0 (min c.prefix n)) in
    let o =
      G.run ~tol:c.tol ~check:(Guard.Prefix c.prefix) ~stability
        (fun _ _ -> Array.copy out) s c.x
    in
    let first = (List.hd o.G.attempts).Guard.violation in
    (match (want_nf, first) with
    | Some i, Some (Guard.Non_finite { index }) when i = index -> ()
    | Some i, _ -> QCheck2.Test.fail_reportf "expected Non_finite at %d" i
    | None, v -> (
        match (boxed_divergence ~tol:c.tol reference out, v) with
        | None, None -> ()
        | Some (i, got, expected), Some (Guard.Divergence d)
          when d.index = i && same_bits d.got got
               && same_bits d.expected expected && d.tol = c.tol -> ()
        | Some (i, got, expected), _ ->
            QCheck2.Test.fail_reportf
              "expected Divergence at %d (got %s, expected %s)" i
              (show_float got) (show_float expected)
        | None, _ -> QCheck2.Test.fail_reportf "expected no violation"));
    (* The serial output itself passes the prefix check at tol 0 unless
       it is non-finite: the reference is [Serial.full] to the bit, up to
       the sign of a zero. *)
    (if boxed_non_finite serial = None then
       let o =
         G.run ~tol:0.0 ~check:(Guard.Prefix c.prefix) ~stability
           (fun _ _ -> serial) s c.x
       in
       match (List.hd o.G.attempts).Guard.violation with
       | None -> ()
       | Some v ->
           QCheck2.Test.fail_reportf "serial output rejected: %s"
             (Guard.violation_to_string v));
    true

  let tests ~name = [ qcheck ~name ~print gen agrees ]
end

module Props_f32 = Guard_props (Scalar.F32)
module Props_f64 = Guard_props (Scalar.F64)

(* The guard's checks allocate no per-element boxes: a 1024-element
   prefix check over a 32768-element F32 output stays under 1 KB of
   minor heap per call. *)
let test_guard_allocation () =
  let module Sf = Plr_serial.Serial.Make (Scalar.F32) in
  let s = Signature.map Plr_util.F32.round Plr_signature.Table1.low_pass2.Plr_signature.Table1.signature in
  let x =
    Array.init 32768 (fun i -> Plr_util.F32.round (sin (float_of_int i)))
  in
  let y = Sf.full s x in
  let stability = Stability.analyze s in
  let run () =
    let o = Guard_f.run ~check:(Guard.Prefix 1024) ~stability (fun _ _ -> y) s x in
    if not o.Guard_f.ok then Alcotest.fail "guard rejected the serial output"
  in
  run ();
  let calls = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    run ()
  done;
  let bytes =
    (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8)
    /. float_of_int calls
  in
  if bytes >= 1024.0 then
    Alcotest.failf "guard allocated %.0f bytes of minor heap per call" bytes

(* -------------------------------------------------- parser error paths *)

let test_parse_error_paths () =
  let expect_error label text =
    match Parse.signature text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: %S parsed but should not" label text
  in
  List.iter
    (fun t -> expect_error "syntax" t)
    [ ""; "("; "(1:"; "1"; "abc"; "(1:1))"; "1 2 3"; "(1 : 1, x)"; ":"; "(:)" ];
  (* well-formedness: last coefficients must be nonzero *)
  List.iter
    (fun t -> expect_error "ill-formed" t)
    [ "(1: 0)"; "(1: 1, 0)"; "(1, 0 : 1)"; "(0: 1)" ];
  (match Parse.signature "(1: 0)" with
  | Error (Parse.Ill_formed _) -> ()
  | Error (Parse.Syntax m) -> Alcotest.failf "expected Ill_formed, got Syntax %s" m
  | Ok _ -> Alcotest.fail "(1: 0) must not validate");
  (match Parse.signature "abc" with
  | Error (Parse.Syntax _) -> ()
  | Error (Parse.Ill_formed m) -> Alcotest.failf "expected Syntax, got Ill_formed %s" m
  | Ok _ -> Alcotest.fail "abc must not parse");
  (* the CLI's entry point: signature_exn turns both into Failure, which
     bin/plr maps to a one-line error and exit code 2 *)
  List.iter
    (fun t ->
      match Parse.signature_exn t with
      | _ -> Alcotest.failf "%S: expected Failure" t
      | exception Failure _ -> ())
    [ "(1:"; "(1: 0)" ]

let () =
  Alcotest.run "plr_robust"
    [
      ( "stability",
        [
          Alcotest.test_case "classes" `Quick test_stability_classes;
          Alcotest.test_case "spectral radius" `Quick test_stability_radius;
          Alcotest.test_case "overflow/decay predictions" `Quick
            test_stability_predictions;
        ] );
      ( "guard",
        [
          Alcotest.test_case "nominal" `Quick test_guard_nominal;
          Alcotest.test_case "detects corruption" `Quick test_guard_detects_corruption;
          Alcotest.test_case "unstable float flags" `Quick
            test_guard_unstable_float_flags;
          Alcotest.test_case "unstable int wraps exactly" `Quick
            test_guard_unstable_int_wraps_exactly;
          Alcotest.test_case "gpusim backend" `Quick test_guard_gpusim_backend;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "engine deadlock detected" `Quick
            test_engine_deadlock_detected;
          Alcotest.test_case "multicore drop detected" `Quick
            test_multicore_drop_detected;
          Alcotest.test_case "look-back fault classes pinned" `Quick
            test_multicore_lookback_fault_classes;
          Alcotest.test_case "benign faults exact" `Quick
            test_engine_benign_faults_exact;
          Alcotest.test_case "benign campaigns" `Quick test_chaos_benign_campaigns;
          Alcotest.test_case "full campaigns (240 trials)" `Quick
            test_chaos_full_campaigns;
        ] );
      ( "multicore robustness",
        [
          Alcotest.test_case "domains joined on exception" `Quick
            test_parallel_ranges_joins_on_exception;
          Alcotest.test_case "degenerate inputs (randomized)" `Quick
            test_degenerate_inputs_randomized;
          Alcotest.test_case "unstable guard never masks" `Quick
            test_unstable_guard_never_masks;
        ] );
      ( "parser errors",
        [ Alcotest.test_case "error paths" `Quick test_parse_error_paths ] );
      ( "unboxed checks",
        Alcotest.test_case "allocation per prefix check" `Quick
          test_guard_allocation
        :: Props_f32.tests ~name:"f32 checks = boxed checks"
        @ Props_f64.tests ~name:"f64 checks = boxed checks" );
    ]
