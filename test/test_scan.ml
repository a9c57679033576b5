(* Tests for the time-varying scan subsystem (lib/scan): serial
   reference, run-length sparse fast path, the chunked multicore
   look-back engine (bitwise determinism across schedules), the
   deterministic faulted pipeline, the chaos Scan target, the serve
   front door, the `plr scan` CLI error paths and bitwise validation,
   and shrinking properties holding every sparse and serial evaluator,
   and a one-chunk run, to the boxed [serial].

   The property runs 300 cases per scalar, 3000 with [QCHECK_LONG=1];
   [QCHECK_SEED=N] fixes its seed. *)

module Scalar = Plr_util.Scalar
module Splitmix = Plr_util.Splitmix
module Pool = Plr_exec.Pool
module Faults = Plr_gpusim.Faults
module Chaos = Plr_robust.Chaos
module Scan = Plr_scan.Scan
module Sc_i = Scan.Make (Scalar.Int)
module Sc_f = Scan.Make (Scalar.F32)
module Sc_d = Scan.Make (Scalar.F64)
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
  (* Warmed, the sparse fast path allocates nothing per element, with a
     precompiled plan or without one. *)
  let warmed what f =
    f ();
    let before = Gc.minor_words () in
    f ();
    let delta = Gc.minor_words () -. before in
    if delta > 256.0 then
      Alcotest.failf "warmed %s allocated %.0f minor words" what delta
  in
  warmed "sparse_into ~runs" (fun () -> Sc_i.sparse_into ~runs a b ~dst:dst2);
  warmed "sparse_into" (fun () -> Sc_i.sparse_into a b ~dst:dst2);
  let fa, fb = gen_float ~seed:9 512 in
  let fruns = Sc_f.Runs.build fa fb and fdst = Array.make 512 0.0 in
  warmed "float sparse_into ~runs" (fun () ->
      Sc_f.sparse_into ~runs:fruns fa fb ~dst:fdst);
  warmed "float sparse_into" (fun () -> Sc_f.sparse_into fa fb ~dst:fdst)

let test_sparse_bitwise_float () =
  List.iter
    (fun (seed, n) ->
      let a, b = gen_float ~seed n in
      bitwise_floats
        (Printf.sprintf "sparse = serial (seed %d, n %d)" seed n)
        (Sc_f.serial a b) (Sc_f.sparse a b))
    [ (21, 9); (22, 255); (23, 1000) ];
  (* Signed zeros: a leading a = -1, b = -0.0 step takes the state to
     -1*0 + -0 = -0.0, and the identity run after it mixes b = -0.0 with
     one b = +0.0, which turns the state into +0.0 (-0 + +0 = +0).  A
     fill from the -0.0 state would keep -0.0 through the run. *)
  let n = 64 in
  let a = Array.make n 1.0 and b = Array.make n (-0.0) in
  a.(0) <- -1.0;
  b.(4) <- 0.0;
  let expected = Sc_f.serial a b in
  check_bool "the run starts from a -0.0 state" true
    (Int64.bits_of_float expected.(3) = Int64.bits_of_float (-0.0));
  check_bool "b = +0.0 turns it into +0.0" true
    (Int64.bits_of_float expected.(4) = 0L);
  let runs = Sc_f.Runs.build a b in
  let dst = Array.make n 1.0 in
  bitwise_floats "identity run over -0.0 state" expected (Sc_f.sparse a b);
  bitwise_floats "identity run over -0.0 state, plan" expected
    (Sc_f.sparse ~runs a b);
  Sc_f.serial_into a b ~dst;
  bitwise_floats "identity run over -0.0 state, serial_into" expected dst;
  bitwise_floats "identity run over -0.0 state, f64" (Sc_d.serial a b)
    (Sc_d.sparse a b);
  bitwise_floats "identity run over -0.0 state, f64 plan" (Sc_d.serial a b)
    (Sc_d.sparse ~runs:(Sc_d.Runs.build a b) a b);
  (* Detection treats -0.0 as zero (it only picks candidates); the fill
     rule is what guarantees the committed values are bitwise serial, so
     classifying the run as identity is safe. *)
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

(* Beyond its output, a warmed float [run] allocates per chunk (carries,
   tasks, the protocol's state), not per element: the kernels run on the
   caller's arrays, with no staging copy and no boxed float.  A
   one-domain pool runs every chunk on this domain, whose own counters
   are exact; the output is one major-heap block of n + 1 words. *)
let test_run_float_alloc () =
  let pool = Pool.create ~domains:1 () in
  let n = 65536 and chunk_size = 4096 in
  let a, b = gen_float ~seed:5 n in
  let run () = Sc_d.run ~pool ~chunk_size a b in
  ignore (run ());
  ignore (run ());
  let minor0 = Gc.minor_words ()
  and major0 = (Gc.quick_stat ()).Gc.major_words in
  let y = run () in
  let words =
    Gc.minor_words () -. minor0
    +. ((Gc.quick_stat ()).Gc.major_words -. major0)
    -. float_of_int (n + 1)
  in
  if words > 20000.0 then
    Alcotest.failf
      "warmed float run allocated %.0f words beyond its %d-element output \
       (per-element allocation crept back in)"
      words n;
  bitwise_floats "int-valued streams: bitwise serial" (Sc_d.serial a b) y;
  Pool.shutdown pool

(* A one-chunk float run has no carry to fold: it is the serial chain,
   so it is bitwise [serial] even where two NaNs meet in a product, whose
   result carries its first operand's payload ([a.(i)], as in the boxed
   [S.mul a.(i) y]).  Every [a.(i)] and [y0] is a NaN with a payload of
   its own.  Where every [a.(i)] is a NaN, a chunk's output does not
   depend on its carry either, so the multi-chunk run agrees too. *)
let test_nan_payloads () =
  let n = 64 in
  let nan_with shift p =
    Int64.float_of_bits
      (Int64.logor 0x7FF8_0000_0000_0000L
         (Int64.shift_left (Int64.of_int p) shift))
  in
  let pool = Pool.create ~domains:2 () in
  let case name ~shift ~serial ~run =
    let a = Array.init n (fun i -> nan_with shift (1 + i)) in
    let b = Array.init n (fun i -> if i mod 3 = 0 then -0.0 else 0.5) in
    let y0 = nan_with shift 0x1BEEF in
    let expected = serial ~y0 a b in
    bitwise_floats (name ^ " one chunk") expected (run ~y0 ~chunk_size:n a b);
    bitwise_floats (name ^ " 16-element chunks") expected
      (run ~y0 ~chunk_size:16 a b)
  in
  case "f64" ~shift:0 ~serial:(fun ~y0 a b -> Sc_d.serial ~y0 a b)
    ~run:(fun ~y0 ~chunk_size a b -> Sc_d.run ~pool ~y0 ~chunk_size a b);
  (* F32 keeps the top 22 payload bits through its binary32 rounding. *)
  case "f32" ~shift:29 ~serial:(fun ~y0 a b -> Sc_f.serial ~y0 a b)
    ~run:(fun ~y0 ~chunk_size a b -> Sc_f.run ~pool ~y0 ~chunk_size a b);
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

(* -------------------------------------------------------------- serve *)

module Serve_i = Plr_serve.Serve.Make (Scalar.Int)

let test_serve_submit_scan () =
  let t = Serve_i.create ~domains:2 () in
  let a, b = gen_int ~seed:71 30000 in
  let expected = Sc_i.serial a b in
  (match Serve_i.submit_scan t a b with
  | Ok y -> check_ints "served scan = serial" expected y
  | Error e -> Alcotest.failf "submit_scan failed: %s" (Plr_serve.Serve.error_to_string e));
  (* A second same-length request gets the same answer. *)
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

(* --------------------------------------------------------- properties *)

(* A shrinking property over the scan evaluators: [sparse] and
   [sparse_into], each with and without a prebuilt plan, and
   [serial_into] must all be bitwise the boxed [serial].  Streams are
   identity, reset and dense runs whose lengths straddle
   [Runs.min_run]; identity runs mix b = +0.0 and -0.0, resets have
   a = +-0.0, dense steps and y0 take edge values (NaN, signalling NaN,
   +-inf, -0.0, max_int, min_int), and n starts at 0. *)

let show_float v =
  if Float.is_nan v then Printf.sprintf "nan(%Lx)" (Int64.bits_of_float v)
  else Printf.sprintf "%h" v

let qcheck ~name ~print gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300 ~long_factor:10 ~print gen prop)

module Scan_props (S : Scalar.S) = struct
  module Sc = Scan.Make (S)

  let show (v : S.t) =
    match S.rep with Scalar.Float_rep _ -> show_float v | _ -> S.to_string v

  let show_array a =
    "[|" ^ String.concat "; " (Array.to_list (Array.map show a)) ^ "|]"

  let bitwise (x : S.t array) (y : S.t array) =
    Array.length x = Array.length y
    &&
    match S.rep with
    | Scalar.Float_rep _ ->
        Array.for_all2
          (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
          x y
    | _ -> Array.for_all2 S.equal x y

  (* Raw floats, not rounded through [S.of_float]: an F32 y0 need not be
     a binary32 value, and a signalling NaN stays signalling until the
     first real step. *)
  let edges : S.t list =
    match S.rep with
    | Scalar.Float_rep _ ->
        [ 0.0; -0.0; Float.nan; Float.signaling_nan; infinity; neg_infinity ]
    | _ -> List.map S.of_int [ 0; max_int; min_int; max_int - 1 ]

  let plain : S.t QCheck2.Gen.t =
    match S.rep with
    | Scalar.Float_rep _ -> QCheck2.Gen.float_range (-2.0) 2.0
    | _ -> QCheck2.Gen.(map S.of_int (int_range (-9) 9))

  (* Dense steps include a = 1 with b <> 0 and a <> 1 with b = 0, the
     near misses of an identity step. *)
  let value =
    QCheck2.Gen.(
      frequency
        [ (6, plain); (1, oneofl [ S.one; S.zero; S.neg S.one ]);
          (1, oneofl edges) ])

  let zeros : S.t list =
    match S.rep with Scalar.Float_rep _ -> [ 0.0; -0.0 ] | _ -> [ S.zero ]

  type case = { y0 : S.t; a : S.t array; b : S.t array }

  let print c =
    Printf.sprintf "{y0=%s; a=%s; b=%s}" (show c.y0) (show_array c.a)
      (show_array c.b)

  (* One run of a single class. *)
  let run =
    let open QCheck2.Gen in
    let m = Sc.Runs.min_run in
    let* len = oneof [ int_range 1 (2 * m); oneofl [ m - 1; m; m + 1 ] ] in
    let steps ga gb =
      pair (array_size (return len) ga) (array_size (return len) gb)
    in
    oneof
      [ steps (return S.one) (oneofl zeros) (* identity *);
        steps (oneofl zeros) value (* reset *);
        steps value value (* dense *);
        steps (return S.one) value (* identity and dense steps mixed *) ]

  let gen =
    let open QCheck2.Gen in
    let* runs = list_size (int_range 0 6) run in
    let+ y0 = frequency [ (1, plain); (1, oneofl edges) ] in
    {
      y0;
      a = Array.concat (List.map fst runs);
      b = Array.concat (List.map snd runs);
    }

  let agrees c =
    let y0 = c.y0 and n = Array.length c.a in
    let expected = Sc.serial ~y0 c.a c.b in
    let runs = Sc.Runs.build c.a c.b in
    let check what got =
      if not (bitwise expected got) then
        QCheck2.Test.fail_reportf "%s = %s, serial = %s" what (show_array got)
          (show_array expected)
    in
    (* A stale destination must not leak through. *)
    let into f =
      let dst = Array.make n (S.of_int 7) in
      f dst;
      dst
    in
    check "sparse" (Sc.sparse ~y0 c.a c.b);
    check "sparse ~runs" (Sc.sparse ~y0 ~runs c.a c.b);
    check "sparse_into" (into (fun dst -> Sc.sparse_into ~y0 c.a c.b ~dst));
    check "sparse_into ~runs"
      (into (fun dst -> Sc.sparse_into ~y0 ~runs c.a c.b ~dst));
    check "serial_into" (into (fun dst -> Sc.serial_into ~y0 c.a c.b ~dst));
    true

  (* A one-chunk run is the chunked engine's chain kernel alone. *)
  let one_chunk_agrees c =
    let expected = Sc.serial ~y0:c.y0 c.a c.b
    and got = Sc.run ~y0:c.y0 ~chunk_size:(max 1 (Array.length c.a)) c.a c.b in
    bitwise expected got
    || QCheck2.Test.fail_reportf "run = %s, serial = %s" (show_array got)
         (show_array expected)

  let tests =
    let scalar =
      match S.rep with
      | Scalar.Float_rep Scalar.Round_f32 -> "f32"
      | Scalar.Float_rep Scalar.Exact -> "f64"
      | _ -> S.ctype
    in
    [ qcheck ~name:(scalar ^ " sparse and serial_into = serial") ~print gen
        agrees;
      qcheck ~name:(scalar ^ " one-chunk run = serial") ~print gen
        one_chunk_agrees ]
end

module Props_int = Scan_props (Scalar.Int)
module Props_f32 = Scan_props (Scalar.F32)
module Props_f64 = Scan_props (Scalar.F64)

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

(* Float validation is bitwise: a NaN output equals itself, and a -0.0
   where serial has +0.0 fails.  The identity run of the second command
   starts from a -0.0 state and turns +0.0 at its fourth step. *)
let test_cli_bitwise_validation () =
  if not (Sys.file_exists plr_exe) then
    print_endline "plr.exe not built next to the tests; skipping the CLI pins"
  else begin
    let check_passes what args =
      check_int what 0
        (Sys.command (plr_exe ^ " scan --float " ^ args ^ " >/dev/null 2>&1"))
    in
    check_passes "NaN output validates" "-a'1,1,1' -b'0,nan,0' --backend sparse";
    check_passes "sign of zero through an identity run validates"
      "-a'-1,1,1,1,1,1,1,1,1,1,1,1,1' \
       -b'-0,-0,-0,-0,0,-0,-0,-0,-0,-0,-0,-0,-0' --backend sparse"
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
          Alcotest.test_case "warmed float run allocates per chunk" `Quick
            test_run_float_alloc;
          Alcotest.test_case "NaN payloads are bitwise serial" `Quick
            test_nan_payloads;
        ] );
      ( "faults",
        [
          Alcotest.test_case "pinned fault plans" `Quick test_faulted_pins;
          Alcotest.test_case "chaos campaign" `Quick test_chaos_scan_campaign;
        ] );
      ( "serve",
        [ Alcotest.test_case "submit_scan" `Quick test_serve_submit_scan ] );
      ( "cli",
        [
          Alcotest.test_case "error paths" `Quick test_cli_errors;
          Alcotest.test_case "bitwise validation" `Quick
            test_cli_bitwise_validation;
        ] );
      ("properties", Props_int.tests @ Props_f32.tests @ Props_f64.tests);
    ]
