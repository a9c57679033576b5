(* Tests for the time-varying scan subsystem (lib/scan): serial
   reference, run-length sparse fast path, the chunked multicore
   look-back engine (bitwise determinism across schedules), the
   deterministic faulted pipeline, streaming sessions with
   checkpoint/replay recovery, the chaos Scan target, the serve front
   door, and the `plr scan` CLI error paths. *)

module Scalar = Plr_util.Scalar
module Splitmix = Plr_util.Splitmix
module Buf = Plr_util.Buf
module Pool = Plr_exec.Pool
module Faults = Plr_gpusim.Faults
module Chaos = Plr_robust.Chaos
module Scan = Plr_scan.Scan
module Sc_i = Scan.Make (Scalar.Int)
module Sc_f = Scan.Make (Scalar.F32)
module Chaos_i = Chaos.Make (Scalar.Int)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (array int))

(* A throwaway signature: the chaos Scan target ignores it (the
   coefficient streams come from the trial seed). *)
let dummy_sig =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:[| 1 |] ~feedback:[| 1 |]

let bitwise_floats what (expected : float array) (got : float array) =
  check_int (what ^ ": length") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: element %d: expected %h, got %h" what i v got.(i))
    expected

(* Coefficient streams with run-length structure: identity runs
   (a=1, b=0), reset runs (a=0), and dense stretches, in seeded
   random lengths. *)
let gen_int ?(identity_only = false) ~seed n =
  let g = Splitmix.create seed in
  let a = Array.make n 1 and b = Array.make n 0 in
  if not identity_only then begin
    let i = ref 0 in
    while !i < n do
      let len = min (n - !i) (1 + Splitmix.int g ~bound:24) in
      (match Splitmix.int g ~bound:4 with
      | 0 -> () (* identity run: leave a=1, b=0 *)
      | 1 ->
          for j = !i to !i + len - 1 do
            a.(j) <- 0;
            b.(j) <- Splitmix.int_in g ~lo:(-9) ~hi:9
          done
      | _ ->
          for j = !i to !i + len - 1 do
            a.(j) <- Splitmix.int_in g ~lo:(-2) ~hi:2;
            b.(j) <- Splitmix.int_in g ~lo:(-9) ~hi:9
          done);
      i := !i + len
    done
  end;
  (a, b)

let gen_float ?identity_only ~seed n =
  let a, b = gen_int ?identity_only ~seed n in
  (Array.map float_of_int a, Array.map float_of_int b)

(* ------------------------------------------------------------- serial *)

let test_serial_reference () =
  let a, b = gen_int ~seed:11 257 in
  let y = Sc_i.serial a b in
  let prev = ref 0 in
  Array.iteri
    (fun i _ ->
      let v = (a.(i) * !prev) + b.(i) in
      check_int (Printf.sprintf "y[%d]" i) v y.(i);
      prev := v)
    a;
  (* y0 threads through as the initial carry. *)
  let y7 = Sc_i.serial ~y0:7 [| 3 |] [| 1 |] in
  check_ints "y0 seeds the chain" [| 22 |] y7;
  check_ints "empty input" [||] (Sc_i.serial [||] [||]);
  check_bool "length mismatch rejected" true
    (match Sc_i.serial [| 1 |] [||] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------- sparse *)

let test_sparse_bitwise_int () =
  List.iter
    (fun (seed, n) ->
      let a, b = gen_int ~seed n in
      check_ints
        (Printf.sprintf "sparse = serial (seed %d, n %d)" seed n)
        (Sc_i.serial a b) (Sc_i.sparse a b))
    [ (1, 1); (2, 7); (3, 64); (4, 255); (5, 1000); (6, 4097) ];
  (* All-identity and all-reset streams are the degenerate extremes. *)
  let a, b = gen_int ~identity_only:true ~seed:0 300 in
  check_ints "all-identity" (Sc_i.serial a b) (Sc_i.sparse a b);
  let ra = Array.make 300 0
  and rb = Array.init 300 (fun i -> (i mod 17) - 8) in
  check_ints "all-reset" (Sc_i.serial ra rb) (Sc_i.sparse ra rb);
  (* Precompiled runs are equivalent to the detection pass, and a plan
     for the wrong length is rejected. *)
  let a, b = gen_int ~seed:9 512 in
  let runs = Sc_i.Runs.build a b in
  check_int "runs length" 512 (Sc_i.Runs.length runs);
  check_ints "precompiled runs" (Sc_i.serial a b) (Sc_i.sparse ~runs a b);
  check_bool "wrong-length runs rejected" true
    (match Sc_i.sparse ~runs (Array.sub a 0 100) (Array.sub b 0 100) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The steady-state into-variants write the same values into a
     caller-owned destination and reject a short one. *)
  let dst = Array.make 512 0 and dst2 = Array.make 512 0 in
  Sc_i.serial_into a b ~dst;
  Sc_i.sparse_into ~runs a b ~dst:dst2;
  check_ints "serial_into" (Sc_i.serial a b) dst;
  check_ints "sparse_into" dst dst2;
  check_bool "short dst rejected" true
    (match Sc_i.sparse_into a b ~dst:(Array.make 10 0) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Warmed, with a precompiled plan, the sparse fast path allocates
     nothing per call. *)
  Sc_i.sparse_into ~runs a b ~dst:dst2;
  let before = Gc.minor_words () in
  Sc_i.sparse_into ~runs a b ~dst:dst2;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "warmed sparse_into allocated %.0f minor words" delta

let test_sparse_bitwise_float () =
  List.iter
    (fun (seed, n) ->
      let a, b = gen_float ~seed n in
      bitwise_floats
        (Printf.sprintf "sparse = serial (seed %d, n %d)" seed n)
        (Sc_f.serial a b) (Sc_f.sparse a b))
    [ (21, 9); (22, 255); (23, 1000) ];
  (* Signed zeros: an identity run whose b is -0.0 bitwise, over a state
     that is itself -0.0 (y0 = -0.0 via a leading a = -1 reset-ish op),
     must still match serial bitwise — the fixpoint fill only commits
     once the output repeats exactly. *)
  let n = 64 in
  let a = Array.make n 1.0 and b = Array.make n (-0.0) in
  a.(0) <- 0.0;
  b.(0) <- -0.0;
  bitwise_floats "identity run over -0.0 state" (Sc_f.serial a b)
    (Sc_f.sparse a b);
  (* Detection treats -0.0 as zero (it only picks candidates); the
     fixpoint fill is what guarantees the committed values are bitwise
     serial, so classifying the run as identity is safe. *)
  let runs = Sc_f.Runs.build a b in
  check_bool "negative-zero b run is detected" true
    (Sc_f.Runs.identity_fraction runs > 0.9)

let test_runs_structure () =
  (* Runs shorter than min_run stay dense. *)
  let short = Sc_i.Runs.min_run - 1 in
  let n = 4 * Sc_i.Runs.min_run in
  let a = Array.make n 2 and b = Array.make n 1 in
  for i = 0 to short - 1 do
    a.(i) <- 1;
    b.(i) <- 0
  done;
  let runs = Sc_i.Runs.build a b in
  check_int "short identity run stays dense" 1 (Sc_i.Runs.segments runs);
  check_bool "identity fraction is 0" true
    (Sc_i.Runs.identity_fraction runs = 0.0);
  (* A long identity run is its own segment. *)
  let a2 = Array.make n 1 and b2 = Array.make n 0 in
  for i = n - short - 1 to n - 1 do
    a2.(i) <- 2;
    b2.(i) <- 3
  done;
  let runs2 = Sc_i.Runs.build a2 b2 in
  check_int "identity + dense tail" 2 (Sc_i.Runs.segments runs2);
  check_bool "identity fraction" true
    (abs_float
       (Sc_i.Runs.identity_fraction runs2
       -. (float_of_int (n - short - 1) /. float_of_int n))
    < 1e-9)

(* ---------------------------------------------------------- multicore *)

let test_multicore_int_bitwise () =
  let pool1 = Pool.create ~domains:1 () in
  let pool3 = Pool.create ~domains:3 () in
  List.iter
    (fun n ->
      let a, b = gen_int ~seed:(100 + n) n in
      let expected = Sc_i.serial a b in
      List.iter
        (fun pool ->
          List.iter
            (fun chunk_size ->
              let y = Sc_i.run ?chunk_size ~pool a b in
              check_ints
                (Printf.sprintf "run = serial (n %d, pool %d, chunk %s)" n
                   (Pool.size pool)
                   (match chunk_size with
                   | None -> "auto"
                   | Some c -> string_of_int c))
                expected y)
            [ None; Some 16; Some 37 ])
        [ pool1; pool3 ])
    [ 1; 2; 3; 7; 65; 1000; 4097 ];
  Pool.shutdown pool1;
  Pool.shutdown pool3

let test_multicore_float_determinism () =
  let pool1 = Pool.create ~domains:1 () in
  let pool3 = Pool.create ~domains:3 () in
  let a, b = gen_float ~seed:77 3000 in
  let expected = Sc_f.serial a b in
  let y1 = Sc_f.run ~pool:pool1 ~chunk_size:64 a b in
  let y3 = Sc_f.run ~pool:pool3 ~chunk_size:64 a b in
  (* Bitwise identical across schedules (the determinism contract)... *)
  bitwise_floats "pool 1 = pool 3" y1 y3;
  (* ...and within tolerance of serial (carries are reassociated). *)
  Array.iteri
    (fun i v ->
      if not (Scalar.F32.approx_equal ~tol:1e-3 v y3.(i)) then
        Alcotest.failf "float run diverged from serial at %d: %h vs %h" i v
          y3.(i))
    expected;
  (* All-identity streams and reset-per-chunk streams truncate the carry
     divergence: bitwise serial again. *)
  let ia, ib = gen_float ~identity_only:true ~seed:0 1000 in
  bitwise_floats "all-identity is bitwise serial" (Sc_f.serial ia ib)
    (Sc_f.run ~pool:pool3 ~chunk_size:64 ia ib);
  let n = 1024 in
  let ra, rb = gen_float ~seed:31 n in
  for c = 0 to (n / 64) - 1 do
    (* one reset inside every 64-element chunk *)
    ra.((c * 64) + 7) <- 0.0
  done;
  bitwise_floats "reset-per-chunk is bitwise serial" (Sc_f.serial ra rb)
    (Sc_f.run ~pool:pool3 ~chunk_size:64 ra rb);
  Pool.shutdown pool1;
  Pool.shutdown pool3

let test_multicore_randomized_sweep () =
  (* The headline acceptance sweep: many seeded shapes, int (exact ring,
     bitwise vs serial) on mixed pools and chunk sizes. *)
  let pool = Pool.create ~domains:3 () in
  let g = Splitmix.create 2026 in
  for trial = 0 to 39 do
    let n = 1 + Splitmix.int g ~bound:5000 in
    let chunk_size = 8 + Splitmix.int g ~bound:120 in
    let a, b = gen_int ~seed:(9000 + trial) n in
    let expected = Sc_i.serial a b in
    check_ints
      (Printf.sprintf "sweep trial %d (n %d, chunk %d)" trial n chunk_size)
      expected
      (Sc_i.run ~pool ~chunk_size a b)
  done;
  Pool.shutdown pool

let test_run_into_zero_alloc () =
  let pool = Pool.create ~domains:2 () in
  let n = 65536 in
  let a, b = gen_float ~seed:5 n in
  let ab = Buf.of_array a and bb = Buf.of_array b in
  let dst = Buf.create n in
  let run () = Sc_f.run_into ~pool ~chunk_size:4096 ab bb ~dst in
  run ();
  run ();
  (* warmed *)
  let before = Gc.minor_words () in
  run ();
  let delta = Gc.minor_words () -. before in
  if delta > 20000.0 then
    Alcotest.failf
      "warmed run_into allocated %.0f minor words for n=%d (per-element \
       allocation crept back in)"
      delta n;
  bitwise_floats "run_into output (tolerant chunks: int-valued streams)"
    (Sc_f.run ~pool ~chunk_size:4096 a b)
    (Buf.to_array dst);
  check_bool "non-float scalars rejected" true
    (match Sc_i.run_into ab bb ~dst with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Pool.shutdown pool

(* ------------------------------------------------------ faulted runs *)

let plan events = Faults.of_events events
let ev kind chunk lane = { Faults.kind; chunk; lane; delay = 1 }

let test_faulted_pins () =
  let n = 128 in
  let a = Array.make n 3 and b = Array.make n 1 in
  let expected = Sc_i.serial a b in
  (* Benign reordering must be absorbed exactly. *)
  let benign = plan [ ev Faults.Reorder 1 5; ev Faults.Reorder 2 7 ] in
  check_ints "reorder absorbed exactly" expected
    (Sc_i.run ~faults:benign ~chunk_size:16 a b);
  let expect_detected what faults =
    match Sc_i.run ~faults ~chunk_size:16 a b with
    | _ -> Alcotest.failf "%s: fault was not detected" what
    | exception Scan.Fault_detected _ -> ()
  in
  (* A dropped local publication blocks every later chunk in the window;
     a dropped global publication blocks the next window's boundary
     read.  Both must surface as loud stalls, never hangs. *)
  expect_detected "drop local" (plan [ ev Faults.Drop_local 0 0 ]);
  expect_detected "drop global" (plan [ ev Faults.Drop_global 3 0 ]);
  (* A corrupted carry inside the window disagrees with the look-back
     fold and fails verification before the reader commits. *)
  expect_detected "corrupt carry (a lane)"
    (plan [ ev Faults.Corrupt_carry 1 0 ]);
  expect_detected "corrupt carry (b lane)"
    (plan [ ev Faults.Corrupt_carry 1 1 ]);
  (* A poisoned chunk publishes a poisoned aggregate and carries the
     garbage in its own first and last outputs — the final chunk too,
     though no successor reads its aggregate. *)
  let poisoned c =
    let y = Sc_i.run ~faults:(plan [ ev Faults.Poison_chunk c 0 ]) ~chunk_size:16 a b in
    (y.(c * 16), y.((c * 16) + 15), y.((c + 1) * 16 mod n))
  in
  let first, last, next = poisoned 2 in
  check_ints "poisoned chunk's own outputs" [| 0x5EED_BAD; 0x5EED_BAD |]
    [| first; last |];
  check_bool "successor folds the poisoned aggregate" true (next <> expected.(48));
  let first, last, _ = poisoned 7 in
  check_ints "poisoned final chunk's own outputs" [| 0x5EED_BAD; 0x5EED_BAD |]
    [| first; last |]

let test_chaos_scan_campaign () =
  (* Benign kinds must recover exactly on every trial. *)
  let summary, _ =
    Chaos_i.campaign ~trials:40 ~kinds:Chaos.benign_kinds ~seed:100
      ~target:Chaos.Scan dummy_sig
  in
  check_int "benign scan trials are exact" summary.Chaos.trials
    summary.Chaos.exact;
  (* The full kind mix: faults may degrade (verified fallback) but the
     ladder never accepts silent divergence. *)
  let summary, trials =
    Chaos_i.campaign ~trials:120 ~seed:1 ~target:Chaos.Scan dummy_sig
  in
  if summary.Chaos.silent > 0 then
    Alcotest.failf "scan chaos: %d silent divergences" summary.Chaos.silent;
  check_int "all scan trials classified" summary.Chaos.trials
    (summary.Chaos.exact + summary.Chaos.degraded + summary.Chaos.detected);
  check_bool "campaign injected faults" true (summary.Chaos.injected > 0);
  check_bool "some trials hit the fault paths" true
    (List.exists
       (fun t -> match t.Chaos_i.outcome with Chaos.Degraded _ -> true | _ -> false)
       trials)

(* ------------------------------------------------------------- stream *)

let test_stream_bitwise () =
  let n = 5000 in
  let a, b = gen_int ~seed:41 n in
  let expected = Sc_i.serial a b in
  let t = Sc_i.Stream.create ~checkpoint_every:512 () in
  let out = Array.make n 0 in
  let g = Splitmix.create 99 in
  let i = ref 0 in
  while !i < n do
    let len = min (n - !i) (1 + Splitmix.int g ~bound:700) in
    let y =
      Sc_i.Stream.process t (Array.sub a !i len) (Array.sub b !i len)
    in
    Array.blit y 0 out !i len;
    i := !i + len
  done;
  check_ints "stream pieces = serial" expected out;
  check_int "position" n (Sc_i.Stream.position t);
  check_int "final value" expected.(n - 1) (Sc_i.Stream.value t);
  check_bool "checkpoints were taken" true
    ((Sc_i.Stream.stats t).Sc_i.Stream.checkpoints > 0);
  (* Float streams are bitwise serial too: pieces evaluate serially from
     the exact carry. *)
  let fa, fb = gen_float ~seed:42 1000 in
  let ft = Sc_f.Stream.create () in
  let fout = Array.make 1000 0.0 in
  List.iter
    (fun (off, len) ->
      let y =
        Sc_f.Stream.process ft (Array.sub fa off len) (Array.sub fb off len)
      in
      Array.blit y 0 fout off len)
    [ (0, 333); (333, 1); (334, 666) ];
  bitwise_floats "float stream = serial" (Sc_f.serial fa fb) fout

let test_stream_skip_and_fast_forward () =
  (* skip n = n identity steps; fast_forward (a_prod, b_fold) = the
     composed operator of the skipped segment. *)
  let pre_a, pre_b = gen_int ~seed:51 200 in
  let gap_a, gap_b = gen_int ~seed:52 300 in
  let post_a, post_b = gen_int ~seed:53 200 in
  let concat x y z = Array.concat [ x; y; z ] in
  let full_a = concat pre_a gap_a post_a
  and full_b = concat pre_b gap_b post_b in
  let expected = Sc_i.serial full_a full_b in
  (* Compose the gap's operator pair by folding it. *)
  let ap = ref 1 and bf = ref 0 in
  Array.iteri
    (fun i ai ->
      ap := ai * !ap;
      bf := (ai * !bf) + gap_b.(i))
    gap_a;
  let t = Sc_i.Stream.create () in
  ignore (Sc_i.Stream.process t pre_a pre_b);
  Sc_i.Stream.fast_forward t ~a_prod:!ap ~b_fold:!bf ~steps:300;
  let y = Sc_i.Stream.process t post_a post_b in
  check_int "position after ff" 700 (Sc_i.Stream.position t);
  check_ints "fast-forward = serial over the gap"
    (Array.sub expected 500 200)
    y;
  check_bool "ff counted" true
    ((Sc_i.Stream.stats t).Sc_i.Stream.fastforwards > 0);
  (* An identity gap is a skip: the carry is unchanged. *)
  let t2 = Sc_i.Stream.create () in
  ignore (Sc_i.Stream.process t2 pre_a pre_b);
  let before = Sc_i.Stream.value t2 in
  Sc_i.Stream.skip t2 1_000_000;
  check_int "skip preserves the carry" before (Sc_i.Stream.value t2);
  check_int "skip advances the position" 1_000_200
    (Sc_i.Stream.position t2)

let test_stream_recovery () =
  let n = 4000 in
  let a, b = gen_int ~seed:61 n in
  let expected = Sc_i.serial a b in
  List.iter
    (fun fault ->
      let t = Sc_i.Stream.create ~checkpoint_every:256 () in
      let out = Array.make n 0 in
      let piece = 500 in
      let i = ref 0 and k = ref 0 in
      while !i < n do
        let len = min piece (n - !i) in
        (* arm the fault on every other piece *)
        let fault = if !k mod 2 = 1 then Some fault else None in
        let y =
          Sc_i.Stream.process ?fault t (Array.sub a !i len)
            (Array.sub b !i len)
        in
        Array.blit y 0 out !i len;
        i := !i + len;
        incr k
      done;
      let what = Sc_i.Stream.fault_to_string fault in
      check_ints (what ^ ": outputs stay bitwise serial") expected out;
      let stats = Sc_i.Stream.stats t in
      check_bool (what ^ ": faults were detected") true
        (stats.Sc_i.Stream.detected > 0);
      check_bool (what ^ ": recovery ran") true
        (stats.Sc_i.Stream.recoveries > 0))
    [ Sc_i.Stream.Crash; Sc_i.Stream.Corrupt_state ];
  (* Engine faults: the piece solves under an injected plan, is verified
     whole against the serial reference before any state commits, and a
     detected divergence replays cleanly. *)
  let t = Sc_i.Stream.create ~checkpoint_every:256 () in
  let out = Array.make n 0 in
  let piece = 500 in
  let i = ref 0 and k = ref 0 in
  while !i < n do
    let len = min piece (n - !i) in
    let fault = Some (Sc_i.Stream.Engine_fault (7000 + !k)) in
    let y =
      Sc_i.Stream.process ?fault t (Array.sub a !i len) (Array.sub b !i len)
    in
    Array.blit y 0 out !i len;
    i := !i + len;
    incr k
  done;
  check_ints "engine faults: outputs stay bitwise serial" expected out

(* -------------------------------------------------------------- serve *)

module Serve_i = Plr_serve.Serve.Make (Scalar.Int)

let test_serve_submit_scan () =
  let t = Serve_i.create ~domains:2 () in
  let a, b = gen_int ~seed:71 30000 in
  let expected = Sc_i.serial a b in
  (match Serve_i.submit_scan t a b with
  | Ok y -> check_ints "served scan = serial" expected y
  | Error e -> Alcotest.failf "submit_scan failed: %s" (Plr_serve.Serve.error_to_string e));
  (* Plan-cache hit on the second same-length request. *)
  (match Serve_i.submit_scan t a b with
  | Ok y -> check_ints "second request" expected y
  | Error e -> Alcotest.failf "submit_scan failed: %s" (Plr_serve.Serve.error_to_string e));
  (* The snapshot attributes the scan share per request kind. *)
  let json = Serve_i.snapshot_json t in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "snapshot has a kinds block" true (contains json "\"kinds\"");
  check_bool "snapshot attributes the scan kind" true
    (contains json "\"scan\": { \"submitted\": 2, \"completed\": 2, \"failed\": 0");
  (* Mismatched streams are a structured failure, not an exception. *)
  (match Serve_i.submit_scan t a (Array.sub b 0 10) with
  | Error (Plr_serve.Serve.Failed _) -> ()
  | Ok _ -> Alcotest.fail "length mismatch accepted"
  | Error e ->
      Alcotest.failf "unexpected error: %s" (Plr_serve.Serve.error_to_string e));
  (* An expired deadline is refused before execution. *)
  (match Serve_i.submit_scan ~deadline:(Unix.gettimeofday () -. 1.0) t a b with
  | Error Plr_serve.Serve.Deadline_exceeded -> ()
  | Ok _ -> Alcotest.fail "expired deadline accepted"
  | Error e ->
      Alcotest.failf "unexpected error: %s" (Plr_serve.Serve.error_to_string e))

(* ---------------------------------------------------------------- CLI *)

let plr_exe = "../bin/plr.exe"

let test_cli_errors () =
  if not (Sys.file_exists plr_exe) then
    print_endline "plr.exe not built next to the tests; skipping the CLI pins"
  else begin
    let check_exit2 what cmd =
      let code = Sys.command (cmd ^ " >/dev/null 2>&1") in
      check_int what 2 code
    in
    check_exit2 "mismatched streams"
      (plr_exe ^ " scan -a 1,2 -b 1,2,3 --backend serial");
    check_exit2 "negative n" (plr_exe ^ " scan -n -5");
    check_exit2 "zero n" (plr_exe ^ " scan -n 0");
    check_exit2 "unknown backend" (plr_exe ^ " scan -n 64 --backend warp");
    check_exit2 "identity out of range"
      (plr_exe ^ " scan -n 64 --identity 1.5");
    check_exit2 "a without b" (plr_exe ^ " scan -a 1,2,3");
    check_exit2 "non-integer stream without --float"
      (plr_exe ^ " scan -a 1.5,2 -b 1,2 --int --backend serial");
    check_int "valid run passes" 0
      (Sys.command
         (plr_exe
        ^ " scan -n 2000 --backend multicore --domains 2 >/dev/null 2>&1"))
  end

let () =
  Alcotest.run "scan"
    [
      ( "serial",
        [
          Alcotest.test_case "reference chain" `Quick test_serial_reference;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "int bitwise" `Quick test_sparse_bitwise_int;
          Alcotest.test_case "float bitwise" `Quick test_sparse_bitwise_float;
          Alcotest.test_case "runs structure" `Quick test_runs_structure;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "int bitwise across schedules" `Quick
            test_multicore_int_bitwise;
          Alcotest.test_case "float determinism" `Quick
            test_multicore_float_determinism;
          Alcotest.test_case "randomized sweep" `Quick
            test_multicore_randomized_sweep;
          Alcotest.test_case "warmed run_into does not allocate" `Quick
            test_run_into_zero_alloc;
        ] );
      ( "faults",
        [
          Alcotest.test_case "pinned fault plans" `Quick test_faulted_pins;
          Alcotest.test_case "chaos campaign" `Quick test_chaos_scan_campaign;
        ] );
      ( "stream",
        [
          Alcotest.test_case "pieces are bitwise serial" `Quick
            test_stream_bitwise;
          Alcotest.test_case "skip and fast-forward" `Quick
            test_stream_skip_and_fast_forward;
          Alcotest.test_case "checkpoint recovery" `Quick test_stream_recovery;
        ] );
      ( "serve",
        [ Alcotest.test_case "submit_scan" `Quick test_serve_submit_scan ] );
      ("cli", [ Alcotest.test_case "error paths" `Quick test_cli_errors ]);
    ]
