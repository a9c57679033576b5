(* Tests for the flat storage path: the benchmark's Buf shim, a
   randomized cross-backend bitwise equivalence sweep (every storage path
   must reproduce the boxed serial reference bit for bit), shrinking
   properties over the serial entry, the order-specialized kernels and
   the sweeps at edge values, the [*_into] buffer contract, and a
   steady-state allocation pin on the unboxed entry point.

   The property runs 300 cases per scalar, 3000 with [QCHECK_LONG=1];
   [QCHECK_SEED=N] fixes its seed. *)

module Scalar = Plr_util.Scalar
module Buf = Plr_util.Buf
module Splitmix = Plr_util.Splitmix
module Pool = Plr_exec.Pool
module Faults = Plr_gpusim.Faults
module Multicore = Plr_multicore.Multicore
module Opts = Plr_factors.Opts

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- Buf *)

(* The shim is the benchmark's: a [float array] under the six functions
   it calls. *)
let test_buf_basics () =
  let b = Buf.create 5 in
  check_int "length" 5 (Buf.length b);
  for i = 0 to 4 do
    check_bool "zero-filled" true (Buf.uget b i = 0.0)
  done;
  Buf.set b 2 1.5;
  check_bool "set/uget" true (Buf.uget b 2 = 1.5);
  let f = Buf.init 3 (fun i -> float_of_int i *. 2.0) in
  check_bool "init" true (f = [| 0.0; 2.0; 4.0 |]);
  let d = Buf.create 3 in
  Buf.blit ~src:f ~dst:d;
  check_bool "blit" true (d = f)

(* ------------------------------------- cross-backend bitwise sweep *)

(* A fault plan that perturbs nothing: a late ready flag is benign in the
   untimed replay, which still runs on the boxed kernels. *)
let benign =
  Faults.of_events
    [ { Faults.kind = Faults.Delay_flag; chunk = 0; lane = 0; delay = 1 } ]

(* Every backend and storage path, same signature and input.  The
   invariants mirror the repo's documented contracts:

   - integer scalars are exact, so every backend must equal the serial
     reference bit for bit;
   - float backends must match the serial reference within the paper's
     1e-3 bound (§5) — the chunked algorithm reorders float operations,
     so exact equality with the direct recurrence is not the contract;
   - but across STORAGE paths of the same computation, bitwise identity
     IS the contract: [full_into] vs [full], live [run_into] vs the boxed
     replay of its schedule, and [run] across pool sizes under one
     (chunk, window) schedule all execute the identical operation and
     rounding sequence, so any drift is a bug.  Every scalar runs both
     [*_into] entries. *)
module Sweep (S : Scalar.S) = struct
  module Serial = Plr_serial.Serial.Make (S)
  module Multi = Plr_multicore.Multicore.Make (S)
  module Stream = Plr_multicore.Stream.Make (S)

  let coeff g =
    match S.kind with
    | Scalar.Integer -> S.of_int (Splitmix.int_in g ~lo:(-2) ~hi:2)
    | Scalar.Floating -> S.of_float (Splitmix.float_in g ~lo:(-0.9) ~hi:0.9)

  let rec nonzero_coeff g =
    let c = coeff g in
    if S.is_zero c then nonzero_coeff g else c

  (* the last coefficient of each list defines taps/order and must be
     nonzero for Signature.create *)
  let random_signature g =
    let k = Splitmix.int_in g ~lo:1 ~hi:3 in
    let taps = Splitmix.int_in g ~lo:1 ~hi:2 in
    let tail len i = if i = len - 1 then nonzero_coeff g else coeff g in
    Signature.create ~is_zero:S.is_zero
      ~forward:(Array.init taps (tail taps))
      ~feedback:(Array.init k (tail k))

  let random_input g n = Array.init n (fun _ -> coeff g)

  let same_value a b =
    match S.kind with
    | Scalar.Integer -> S.equal a b
    | Scalar.Floating ->
        Int64.bits_of_float (S.to_float a) = Int64.bits_of_float (S.to_float b)

  let check_bitwise ~what expected got =
    check_int (what ^ ": length") (Array.length expected) (Array.length got);
    Array.iteri
      (fun i e ->
        if not (same_value e got.(i)) then
          Alcotest.failf "%s: bitwise mismatch at %d: %s vs %s" what i
            (S.to_string e) (S.to_string got.(i)))
      expected

  (* Against the serial reference: exact for integers, the paper's 1e-3
     bound for floats (the chunked backends reorder float operations). *)
  let check_vs_serial ~what expected got =
    match S.kind with
    | Scalar.Integer -> check_bitwise ~what expected got
    | Scalar.Floating -> (
        match Serial.validate ~tol:1e-3 ~expected got with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: %s" what m)

  (* Each pairs a flat-storage path with the boxed computation it must
     reproduce bit for bit.  [Multicore.run] answers unfaulted calls with
     [run_into] itself, so the boxed side of the second pair is a benign
     fault plan: it replays the same chunks under the replay's look-back
     window on the boxed kernels. *)
  let storage_pairs ~pool ~opts ~chunk_size =
    let into f s x =
      let dst = Array.make (Array.length x) S.zero in
      f s ~src:x ~dst;
      dst
    in
    [ ("full_into vs full", Serial.full, into Serial.full_into);
      ( "run_into vs boxed replay",
        (fun s x -> Multi.run ~opts ~pool ~chunk_size ~faults:benign s x),
        into (fun s ~src ~dst ->
            Multi.run_into ~opts ~pool ~chunk_size
              ~window:Multicore.faulted_lookback_window s ~src ~dst) ) ]

  let stream_runner ~pool ~g s x =
    let st = Stream.create ~pool s in
    let n = Array.length x in
    let out = ref [] in
    let pos = ref 0 in
    while !pos < n do
      let len = min (n - !pos) (Splitmix.int_in g ~lo:1 ~hi:(max 1 (n / 3))) in
      out := Stream.process st (Array.sub x !pos len) :: !out;
      pos := !pos + len
    done;
    Array.concat (List.rev !out)

  let sweep () =
    let g = Splitmix.create 0xb17e5 in
    let pool1 = Pool.get ~domains:1 () in
    let pool = Pool.get ~domains:3 () in
    List.iter
      (fun n ->
        List.iter
          (fun opts ->
            let s = random_signature g in
            let x = random_input g n in
            let expected = Serial.full s x in
            let window = if n land 1 = 0 then 1 else 3 in
            let chunk_size = 64 in
            let describe name =
              Printf.sprintf "%s %s n=%d k=%d win=%d %s" S.ctype name n
                (Signature.order s) window
                (if opts = Opts.all_off then "no-opts" else "opts")
            in
            (* every backend agrees with the serial reference *)
            List.iter
              (fun (name, run) ->
                check_vs_serial ~what:(describe name) expected (run s x))
              [ ( "sequential fallback",
                  fun s x -> Multi.run_sequential_fallback ~opts ~chunk_size s x );
                ( "multicore pool=1",
                  fun s x -> Multi.run ~opts ~pool:pool1 ~chunk_size ~window s x );
                ( "multicore defaults",
                  fun s x -> Multi.run ~opts ~pool s x ) ];
            (* a stream continues the serial recurrence: bitwise *)
            check_bitwise ~what:(describe "stream") expected
              (stream_runner ~pool ~g s x);
            (* one (chunk, window) schedule is deterministic: pool sizes
               may not change a single bit *)
            check_bitwise
              ~what:(describe "pool=3 vs pool=1")
              (Multi.run ~opts ~pool:pool1 ~chunk_size ~window s x)
              (Multi.run ~opts ~pool ~chunk_size ~window s x);
            (* unboxed storage reproduces its boxed computation exactly *)
            List.iter
              (fun (name, boxed, unboxed) ->
                check_bitwise ~what:(describe name) (boxed s x) (unboxed s x))
              (storage_pairs ~pool ~opts ~chunk_size))
          [ Opts.all_on; Opts.all_off ])
      [ 1; 2; 3; 7; 65; 1000; 4097 ]
end

module Sweep_f64 = Sweep (Scalar.F64)
module Sweep_f32 = Sweep (Scalar.F32)
module Sweep_int = Sweep (Scalar.Int)

(* ------------------------------------------ order-specialized kernels *)

(* A shrinking property over the kernels every storage path runs:

   - solves: random signatures of order 1–5 with 1–4 taps, chunk sizes
     near the order, lengths 0, below the order, one chunk ± 1 and a few
     chunks, pools of one and two domains.  Ints must equal
     [Serial.full]; floats must equal the boxed replay of the same
     schedule bit for bit, NaN payloads included;
   - the serial entry: the same signatures, each chunk solved from its
     own start in two calls split at a generated offset, as the
     multicore chunk solve and a stream piece call it.  The dispatched
     kernel must equal the boxed loop on the same calls, and the
     whole-array solve must equal [Serial.full], bit for bit, for [Int],
     F32, F64 and the boxed [Int32s];
   - sweeps: factor lists shaped to compile as every class (periodic and
     tabled 0/1, repeating, decayed, dense, all-equal).  The unboxed
     sweep must equal the boxed [apply_list];
   - binary32 rounding: a store into a {!Plr_util.F32.cell} and a load
     back, as the kernels round, equal the [Int32] round trip of
     {!Plr_util.F32.round} on any 64-bit pattern.

   Values include NaN (quiet, signalling, negative), ±inf, −0.0, binary32
   subnormals and ints next to [max_int]/[min_int] (wraparound). *)

let show_float v =
  if Float.is_nan v then Printf.sprintf "nan(%Lx)" (Int64.bits_of_float v)
  else Printf.sprintf "%h" v

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qcheck ~name ~print gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300 ~long_factor:10 ~print gen prop)

module Kernel_props (S : Scalar.S) = struct
  module Serial = Plr_serial.Serial.Make (S)
  module Multi = Plr_multicore.Multicore.Make (S)
  module FP = Plr_factors.Factor_plan.Make (S)

  let show (v : S.t) =
    match S.rep with Scalar.Float_rep _ -> show_float v | _ -> S.to_string v

  let show_array a =
    "[|" ^ String.concat "; " (Array.to_list (Array.map show a)) ^ "|]"

  let bitwise (a : S.t array) (b : S.t array) =
    Array.length a = Array.length b
    &&
    match S.rep with
    | Scalar.Float_rep _ -> Array.for_all2 same_bits a b
    | _ -> Array.for_all2 S.equal a b

  let edges =
    match S.kind with
    | Scalar.Integer ->
        List.map S.of_int [ max_int; min_int; max_int - 1; min_int + 1 ]
    | Scalar.Floating ->
        List.map S.of_float
          [ Float.nan; Float.signaling_nan;
            Int64.float_of_bits 0xFFF8_0000_0000_0000L; infinity;
            neg_infinity; -0.0; 0x1p-149; -0x1.fffffcp-127; 0x1p-126 ]

  let value =
    let open QCheck2.Gen in
    let plain =
      match S.kind with
      | Scalar.Integer -> map S.of_int (int_range (-9) 9)
      | Scalar.Floating -> map S.of_float (float_range (-1.5) 1.5)
    in
    frequency [ (8, plain); (1, oneofl edges) ]

  (* [len] coefficients, the last one nonzero as [Signature.create] asks. *)
  let coeffs len =
    QCheck2.Gen.(
      map2
        (fun init last ->
          Array.append init [| (if S.is_zero last then S.one else last) |])
        (array_size (return (len - 1)) value)
        value)

  type solve = {
    forward : S.t array;
    feedback : S.t array;
    chunk_size : int;
    domains : int;
    x : S.t array;
  }

  let print_solve c =
    Printf.sprintf
      "{forward=%s; feedback=%s; chunk_size=%d; domains=%d; n=%d; x=%s}"
      (show_array c.forward) (show_array c.feedback) c.chunk_size c.domains
      (Array.length c.x) (show_array c.x)

  let gen_solve =
    let open QCheck2.Gen in
    let* k = int_range 1 5 in
    let* taps = int_range 1 4 in
    let* forward = coeffs taps and* feedback = coeffs k in
    let* chunk_size = int_range 1 (k + 4) in
    (* a run's chunks hold at least k elements *)
    let m = max k chunk_size in
    let* n =
      oneof
        [ return 0; int_range 0 (k - 1); oneofl [ m - 1; m; m + 1 ];
          int_range 0 (8 * m) ]
    in
    let* domains = int_range 1 2 in
    let+ x = array_size (return n) value in
    { forward; feedback; chunk_size; domains; x }

  let pools = lazy (Array.init 2 (fun i -> Pool.get ~domains:(i + 1) ()))

  let signature c =
    Signature.create ~is_zero:S.is_zero ~forward:c.forward ~feedback:c.feedback

  let solve_agrees c =
    let s = signature c in
    let pool = (Lazy.force pools).(c.domains - 1) in
    let chunk_size = c.chunk_size in
    let dst = Array.make (Array.length c.x) S.zero in
    Multi.run_into ~pool ~chunk_size ~window:Multicore.faulted_lookback_window
      s ~src:c.x ~dst;
    match S.rep with
    | Scalar.Float_rep _ ->
        bitwise (Multi.run ~pool ~chunk_size ~faults:benign s c.x) dst
    | _ -> bitwise (Serial.full s c.x) dst

  let gen_entry = QCheck2.Gen.(pair gen_solve (int_range 0 6))

  let print_entry (c, split) =
    Printf.sprintf "%s split=%d" (print_solve c) split

  (* Chunks of [m] outputs, each solved from its own start in two calls
     split [split] outputs in. *)
  let chunked solve s x ~m ~split =
    let n = Array.length x in
    let y = Array.make n S.zero in
    let base = ref 0 in
    while !base < n do
      let hi = min n (!base + m) in
      let mid = min hi (!base + split) in
      solve s x y ~base:!base ~lo:!base ~hi:mid;
      solve s x y ~base:!base ~lo:mid ~hi;
      base := hi
    done;
    y

  let entry_agrees (c, split) =
    let s = signature c in
    let boxed (s : S.t Signature.t) x y =
      Serial.solve_boxed ~forward:s.forward ~feedback:s.feedback x y
    in
    let m = c.chunk_size in
    if not (bitwise (chunked boxed s c.x ~m ~split)
              (chunked Serial.solve s c.x ~m ~split))
    then QCheck2.Test.fail_report "chunked solve differs from the boxed loop";
    let whole = chunked Serial.solve s c.x ~m:(Array.length c.x) ~split in
    if not (bitwise (Serial.full s c.x) whole) then
      QCheck2.Test.fail_report "whole-array solve differs from Serial.full";
    true

  type sweep = { shape : string; raw : S.t array; carry : S.t; y : S.t array }

  let print_sweep c =
    Printf.sprintf "{shape=%s; raw=%s; carry=%s; y=%s}" c.shape
      (show_array c.raw) (show c.carry) (show_array c.y)

  let gen_sweep =
    let open QCheck2.Gen in
    let bit = map (fun b -> if b then S.one else S.zero) bool in
    let periodic ~p elt =
      map2
        (fun period reps -> Array.init (p * reps) (fun q -> period.(q mod p)))
        (array_size (return p) elt) (int_range 2 8)
    in
    let* p = int_range 1 6 in
    let* shape, raw =
      oneof
        [ map (fun l -> ("zero-one periodic", l)) (periodic ~p bit);
          map (fun l -> ("zero-one", l)) (array_size (int_range 2 40) bit);
          map (fun l -> ("repeating", l)) (periodic ~p:(p + 1) value);
          map2
            (fun head zeros ->
              ("decayed", Array.append head (Array.make zeros S.zero)))
            (array_size (int_range 1 12) value) (int_range 12 30);
          map (fun l -> ("dense", l)) (array_size (int_range 2 40) value);
          map2 (fun v m -> ("all-equal", Array.make m v)) value (int_range 2 40) ]
    in
    let m = Array.length raw in
    let* carry = value in
    let+ y = array_size (return m) value in
    { shape; raw; carry; y }

  (* The unboxed sweep of list 0 over a copy of [y]. *)
  let unboxed_sweep fp ~carry (y : S.t array) : S.t array =
    let m = Array.length y in
    let y = Array.copy y in
    (match S.rep with
    | Scalar.Float_rep _ -> FP.apply_list_f fp ~j:0 ~carry y ~base:0 ~len:m
    | Scalar.Int_rep -> FP.apply_list_int fp ~j:0 ~carry y ~base:0 ~len:m
    | Scalar.Other_rep -> ());
    y

  let sweep_agrees c =
    let m = Array.length c.raw in
    let fp = FP.compile ~max_period:64 [| c.raw |] in
    let boxed = Array.copy c.y in
    FP.apply_list fp ~j:0 ~carry:c.carry boxed ~base:0 ~len:m;
    if not (bitwise boxed (unboxed_sweep fp ~carry:c.carry c.y)) then
      QCheck2.Test.fail_reportf "%s sweep differs from the boxed apply_list"
        (FP.describe fp 0);
    true

  (* A boxed scalar has no flat solve or sweep of its own: only the
     entry's property applies. *)
  let tests ~scalar =
    let entry =
      qcheck
        ~name:(scalar ^ " entry = boxed loop and Serial.full")
        ~print:print_entry gen_entry entry_agrees
    in
    match S.rep with
    | Scalar.Other_rep -> [ entry ]
    | _ ->
        let oracle =
          match S.rep with
          | Scalar.Float_rep _ -> "boxed replay"
          | _ -> "Serial.full"
        in
        [ qcheck
            ~name:(Printf.sprintf "%s solve = %s" scalar oracle)
            ~print:print_solve gen_solve solve_agrees;
          qcheck
            ~name:(scalar ^ " sweep = boxed")
            ~print:print_sweep gen_sweep sweep_agrees;
          entry ]
end

module Props_int = Kernel_props (Scalar.Int)
module Props_f32 = Kernel_props (Scalar.F32)
module Props_f64 = Kernel_props (Scalar.F64)
module Props_int32 = Kernel_props (Scalar.Int32s)

let prop_round_cell =
  let gen =
    QCheck2.Gen.(
      oneof
        [ map Int64.float_of_bits ui64;
          (* NaN and infinity patterns, binary64 subnormals *)
          map
            (fun b -> Int64.float_of_bits (Int64.logor 0x7FF0_0000_0000_0000L b))
            ui64;
          map
            (fun b -> Int64.float_of_bits (Int64.logand 0x800F_FFFF_FFFF_FFFFL b))
            ui64;
          (* around the binary32 subnormal range *)
          float_range (-0x1p-125) 0x1p-125;
          float_range (-1e39) 1e39 ])
  in
  qcheck ~name:"F32 cell rounding = Int32 round trip" ~print:show_float gen
    (fun v ->
      let cell = Plr_util.F32.cell () in
      Bigarray.Array1.unsafe_set cell 0 v;
      same_bits (Bigarray.Array1.unsafe_get cell 0) (Plr_util.F32.round v))

(* -------------------------------------------------- *_into contract *)

(* The [*_into] evaluators write an output before they have read every
   input a later output needs, so [dst == src] is refused, like a [dst]
   too short to hold the result.  OCaml shares one empty array, so two
   distinct empty arrays are [==] and must still be accepted. *)
let test_into_contract () =
  let module S = Scalar.F64 in
  let module Serial = Plr_serial.Serial.Make (S) in
  let module M = Plr_multicore.Multicore.Make (S) in
  let module JB = Plr_jit.Backend.Make (S) in
  let s =
    Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:[| 0.5 |]
      ~feedback:[| 1.5; -0.7 |]
  in
  let src = Array.init 4096 (fun i -> sin (float_of_int i)) in
  let outcome run ~src ~dst =
    match run ~src ~dst with
    | () -> `Accepted
    | exception Invalid_argument _ -> `Refused
  in
  let jit =
    let fplan = JB.F.of_feedback ~feedback:s.Signature.feedback ~m:64 () in
    match JB.prepare ~mode:`Sync ~fplan s with
    | Some jb ->
        [ ( "Backend.run_into",
            fun ~src ~dst -> ignore (JB.run_into jb ~src ~dst : bool) ) ]
    | None -> []
  in
  List.iter
    (fun (name, run) ->
      check_bool (name ^ ": short dst refused") true
        (outcome run ~src ~dst:(Array.make 16 0.0) = `Refused);
      check_bool (name ^ ": dst == src refused") true
        (outcome run ~src ~dst:src = `Refused);
      check_bool (name ^ ": distinct empty arrays accepted") true
        (outcome run ~src:(Array.make 0 0.0) ~dst:(Array.make 0 0.0)
        = `Accepted))
    ([ ("Serial.full_into", fun ~src ~dst -> Serial.full_into s ~src ~dst);
       ( "Multicore.run_into",
         fun ~src ~dst -> M.run_into ~chunk_size:512 s ~src ~dst ) ]
    @ jit)

(* ----------------------------------------------- steady-state alloc *)

(* The point of the unboxed path: once the plan is compiled and the
   buffers exist, a run must not allocate per element.  The boxed path
   would allocate at least 2n words just boxing the floats (n = 65536
   here, so ≥ 131072 words); the pin is far below that, with headroom
   for per-chunk protocol records. *)
let test_run_into_steady_state_alloc () =
  let module S = Scalar.F64 in
  let module M = Plr_multicore.Multicore.Make (S) in
  let module FP = Plr_factors.Factor_plan.Make (S) in
  let n = 65536 in
  let chunk_size = 4096 in
  let s =
    Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:[| 0.2 |]
      ~feedback:[| 0.8 |]
  in
  let plan =
    FP.of_feedback ~opts:Opts.all_on ~feedback:[| 0.8 |] ~m:chunk_size ()
  in
  let pool = Pool.get ~domains:1 () in
  let g = Splitmix.create 0xa110c in
  let src = Array.init n (fun _ -> Splitmix.float_in g ~lo:(-1.0) ~hi:1.0) in
  let dst = Array.make n 0.0 in
  let run () =
    M.run_into ~opts:Opts.all_on ~plan ~pool ~chunk_size ~window:2 s ~src ~dst
  in
  run ();
  run ();
  let before = Gc.minor_words () in
  run ();
  let delta = Gc.minor_words () -. before in
  if delta >= 20_000.0 then
    Alcotest.failf
      "warmed run_into allocated %.0f minor words on %d elements (budget 20000)"
      delta n

let () =
  Alcotest.run "plr_unboxed"
    [
      ("buf", [ Alcotest.test_case "primitives" `Quick test_buf_basics ]);
      ( "bitwise equivalence",
        [
          Alcotest.test_case "f64 backends" `Quick Sweep_f64.sweep;
          Alcotest.test_case "f32 backends" `Quick Sweep_f32.sweep;
          Alcotest.test_case "int backends" `Quick Sweep_int.sweep;
          Alcotest.test_case "into rejects a short or aliased dst" `Quick
            test_into_contract;
        ] );
      ( "kernels",
        Props_int.tests ~scalar:"int"
        @ Props_f32.tests ~scalar:"f32"
        @ Props_f64.tests ~scalar:"f64"
        @ Props_int32.tests ~scalar:"int32"
        @ [ prop_round_cell ] );
      ( "allocation",
        [
          Alcotest.test_case "warmed run_into stays unboxed" `Quick
            test_run_into_steady_state_alloc;
        ] );
    ]
