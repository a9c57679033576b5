(* Tests for the native JIT backend (Plr_codegen.Cemit + Plr_jit):

   - emitter units: entry points present, deterministic text, unsupported
     scalars refused;
   - the cross-backend bitwise sweep: random int/float signatures and the
     Table-1 filters, [plr_jit_run] vs the serial reference (bitwise, the
     JIT's contract) and [plr_jit_run_chunked] vs the OCaml sequential
     fallback at the same chunk size (bitwise — identical op order);
   - fresh kernels first used on NaNs and infinities, which must
     validate (any NaN agrees with any NaN);
   - degradation pins: disabled env, missing toolchain, compile failure,
     and first-use mismatch poisoning, each answering [None]/fallback with
     a [jit.fallback] trace instant, with [Guard.jit_runner] still
     producing correct output through the OCaml path;
   - the on-disk [.so] cache pin: the second build of the same source
     performs zero cc invocations;
   - chaos campaigns with the JIT-first dispatch armed. *)

module Scalar = Plr_util.Scalar
module Splitmix = Plr_util.Splitmix
module Jit = Plr_jit.Jit
module Backend = Plr_jit.Backend
module Trace = Plr_trace.Trace
module Table1 = Plr_signature.Table1

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value ~default:"" old))
    f

let have_cc = Jit.toolchain_available ()

let skip_without_cc () =
  if not have_cc then Alcotest.skip ()

(* ------------------------------------------------------------ emitter *)

module Ci = Plr_codegen.Cemit.Make (Scalar.Int)
module C32 = Plr_codegen.Cemit.Make (Scalar.Int32s)
module JBi = Backend.Make (Scalar.Int)
module JBf = Backend.Make (Scalar.F32)
module JBf64 = Backend.Make (Scalar.F64)

let int_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

let float_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0.0) ~forward:fwd ~feedback:fbk

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_emit_basics () =
  let s = int_sig [| 1 |] [| 1 |] in
  let fplan = JBi.F.of_feedback ~feedback:s.Signature.feedback ~m:64 () in
  let src = JBi.C.emit ~fplan s in
  List.iter
    (fun needle ->
      check_bool ("emitted source contains " ^ needle) true
        (contains ~needle src))
    [ "plr_jit_run"; "plr_jit_run_chunked"; "plr_sweep_0"; "int64_t" ];
  (* deterministic text — the digest cache depends on it *)
  check_bool "emit is deterministic" true (String.equal src (JBi.C.emit ~fplan s));
  (* prefix sum folds its factor list to a constant-1 sweep *)
  check_bool "all-equal specialization mentioned" true
    (contains ~needle:"all factors are 1" src);
  (* scalars without a native C representation are refused *)
  check_bool "Int32s unsupported" false C32.supported;
  check_bool "Int supported" true Ci.supported;
  check_bool "F32 supported" true JBf.supported

(* ------------------------------------------- bitwise equivalence sweep *)

module Sweep (S : Scalar.S) = struct
  module Serial = Plr_serial.Serial.Make (S)
  module Multi = Plr_multicore.Multicore.Make (S)
  module JB = Backend.Make (S)

  let coeff g =
    match S.kind with
    | Scalar.Integer -> S.of_int (Splitmix.int_in g ~lo:(-2) ~hi:2)
    | Scalar.Floating -> S.of_float (Splitmix.float_in g ~lo:(-0.9) ~hi:0.9)

  let rec nonzero_coeff g =
    let c = coeff g in
    if S.is_zero c then nonzero_coeff g else c

  let random_signature g =
    let k = Splitmix.int_in g ~lo:1 ~hi:3 in
    let taps = Splitmix.int_in g ~lo:1 ~hi:2 in
    let tail len i = if i = len - 1 then nonzero_coeff g else coeff g in
    Signature.create ~is_zero:S.is_zero
      ~forward:(Array.init taps (tail taps))
      ~feedback:(Array.init k (tail k))

  let random_input g n = Array.init n (fun _ -> coeff g)

  (* [any_nan]: two NaNs agree whatever their sign and payload.  Where
     two NaNs meet in a commutative add, the operand order the C compiler
     picks decides which one propagates, for the emulated and the native
     kernels alike. *)
  let same_value ?(any_nan = false) a b =
    match S.kind with
    | Scalar.Integer -> S.equal a b
    | Scalar.Floating ->
        let a = S.to_float a and b = S.to_float b in
        Int64.bits_of_float a = Int64.bits_of_float b
        || (any_nan && Float.is_nan a && Float.is_nan b)

  let check_bitwise ?any_nan ~what expected got =
    check_int (what ^ ": length") (Array.length expected) (Array.length got);
    Array.iteri
      (fun i e ->
        if not (same_value ?any_nan e got.(i)) then
          Alcotest.failf "%s: bitwise mismatch at %d: %s vs %s" what i
            (S.to_string e) (S.to_string got.(i)))
      expected

  let jit_for ~m s =
    let fplan = JB.F.of_feedback ~feedback:s.Signature.feedback ~m () in
    match JB.prepare ~mode:`Sync ~fplan s with
    | None -> Alcotest.fail "prepare returned None with a toolchain present"
    | Some jb -> jb

  let sweep ~extra_sigs () =
    let g = Splitmix.create 0x71c0de in
    let m = 97 in
    let sigs =
      extra_sigs @ List.init 6 (fun _ -> random_signature g)
    in
    List.iter
      (fun s ->
        let jb = jit_for ~m s in
        (match JB.state jb with
        | Plr_jit.Jit.Failed e -> Alcotest.failf "JIT build failed: %s" e
        | _ -> ());
        (* a checked use validates once it ran k + 1 outputs past the
           prologue; a shorter one leaves the kernel unchecked *)
        let k = Signature.order s in
        let validates_at = max (Signature.fir_taps s - 1) k + k + 1 in
        let validated = ref false in
        List.iter
          (fun n ->
            let x = random_input g n in
            let expected = Serial.full s x in
            let what =
              Printf.sprintf "%s n=%d k=%d taps=%d" S.ctype n
                (Signature.order s)
                (Signature.fir_taps s)
            in
            (match JB.run jb x with
            | Some y -> check_bitwise ~what:(what ^ " jit vs serial") expected y
            | None -> Alcotest.failf "%s: jit unavailable" what);
            validated := !validated || n >= validates_at;
            check_bool (what ^ " validated once long enough") !validated
              (JB.validated jb);
            let dst = Array.make n S.zero in
            check_bool (what ^ " run_into answers") true
              (JB.run_into jb ~src:x ~dst);
            check_bitwise ~what:(what ^ " jit run_into vs serial") expected dst;
            (* the chunked kernel replicates the OCaml sequential fallback
               operation for operation at the same chunk size *)
            let seq = Multi.run_sequential_fallback ~chunk_size:m s x in
            match JB.run_chunked jb ~m x with
            | Some y ->
                check_bitwise ~what:(what ^ " jit-chunked vs seq-fallback") seq y
            | None -> Alcotest.failf "%s: chunked jit unavailable" what)
          [ 0; 1; 7; 500 ])
      sigs

  (* Float edge values: NaN and +-inf (only with [non_finite]: one of
     them turns the rest of a stable chain non-finite), -0.0, binary32
     subnormals, magnitudes near the binary32 overflow, and doubles that
     are not binary32 (the kernel's contract covers any input), mixed
     with plain binary32 values. *)
  let edge_value ~non_finite g : float =
    let sign v = if Splitmix.int g ~bound:2 = 0 then v else -.v in
    match Splitmix.int_in g ~lo:0 ~hi:15 with
    | 0 when non_finite -> Float.nan
    | 1 when non_finite -> Float.infinity
    | 2 when non_finite -> Float.neg_infinity
    | 3 -> -0.0
    | 4 | 5 ->
        sign
          (Int32.float_of_bits
             (Int32.of_int (Splitmix.int_in g ~lo:1 ~hi:0x7fffff)))
    | 6 -> sign (Plr_util.F32.round (Splitmix.float_in g ~lo:1e38 ~hi:3.4e38))
    | 7 | 8 -> Splitmix.float_in g ~lo:(-0.9) ~hi:0.9
    | _ -> Plr_util.F32.round (Splitmix.float_in g ~lo:(-2.0) ~hi:2.0)

  (* [plr_jit_run] against the serial reference on edge inputs, at the
     lengths where the kernel's loops change: k-1, k, k+1 and the
     prologue (max (taps-1) k) +-1, plus one long run.  Every bit agrees
     except a NaN's sign and payload.  Each kernel is validated on a
     plain input first: its first-use check compares NaN bits. *)
  let edge_sweep sigs =
    match S.rep with
    | Scalar.Float_rep _ ->
        let g = Splitmix.create 0xed9e in
        List.iter
          (fun (s : S.t Signature.t) ->
            let jb = jit_for ~m:97 s in
            if JB.run jb (random_input g 64) = None then
              Alcotest.fail "jit unavailable";
            let k = Signature.order s in
            let pro = max (Signature.fir_taps s - 1) k in
            List.iter
              (fun (n, non_finite) ->
                let x = Array.init n (fun _ -> edge_value ~non_finite g) in
                let what =
                  Printf.sprintf "%s edge n=%d k=%d taps=%d non-finite=%b"
                    S.ctype n k (Signature.fir_taps s) non_finite
                in
                match JB.run jb x with
                | Some y ->
                    check_bitwise ~any_nan:true ~what (Serial.full s x) y
                | None -> Alcotest.failf "%s: jit unavailable" what)
              (List.concat_map
                 (fun n -> [ (n, true); (n, false) ])
                 (List.sort_uniq compare
                    (List.filter (fun n -> n >= 0)
                       [ k - 1; k; k + 1; pro - 1; pro; pro + 1; 2000 ]))))
          sigs
    | _ -> ()

  (* Fresh kernels whose first input is an edge input: NaNs of both signs
     and +-inf (whose sum is a NaN) meet in the kernel's adds, where the C
     compiler's operand order decides which NaN propagates.  The first-use
     check takes any NaN for any NaN, so every kernel validates on that
     input; comparing NaN bits would poison correct kernels. *)
  let edge_first_use sigs =
    match S.rep with
    | Scalar.Float_rep _ ->
        let g = Splitmix.create 0xf125e in
        let edges = [| Float.nan; -.Float.nan; infinity; neg_infinity; 0.5 |] in
        List.iter
          (fun (s : S.t Signature.t) ->
            let jb = jit_for ~m:97 s in
            let x = Array.init 64 (fun _ -> edges.(Splitmix.int g ~bound:5)) in
            let what =
              Printf.sprintf "%s first use k=%d taps=%d" S.ctype
                (Signature.order s) (Signature.fir_taps s)
            in
            (match JB.run jb x with
            | Some y -> check_bitwise ~any_nan:true ~what (Serial.full s x) y
            | None -> Alcotest.failf "%s: the kernel was poisoned" what);
            check_bool (what ^ ": validated") true (JB.validated jb))
          sigs
    | _ -> ()
end

module Sweep_int = Sweep (Scalar.Int)
module Sweep_f32 = Sweep (Scalar.F32)
module Sweep_f64 = Sweep (Scalar.F64)

let test_sweep_int () =
  skip_without_cc ();
  (* include a wrap-heavy signature: the C kernel computes mod 2^64 and
     renormalizes to OCaml's 63 bits at stores *)
  let wrap = int_sig [| 123456789 |] [| 3; -7 |] in
  Sweep_int.sweep ~extra_sigs:[ wrap; int_sig [| 1 |] [| 1 |] ] ()

let test_sweep_f32 () =
  skip_without_cc ();
  let table1 =
    List.map
      (fun e -> Signature.map Plr_util.F32.round e.Table1.signature)
      Table1.float_entries
  in
  Sweep_f32.sweep ~extra_sigs:table1 ();
  (* 0.1 and -0.3 are not binary32: their products keep the emulated
     rounding while the binary32 ones run natively *)
  let mixed = float_sig [| 0.5; 0.25 |] [| 0.1; 0.5; -0.3 |] in
  let g = Splitmix.create 0xf32 in
  Sweep_f32.edge_sweep
    (mixed :: table1 @ List.init 6 (fun _ -> Sweep_f32.random_signature g))

let test_sweep_f64 () =
  skip_without_cc ();
  let table1 =
    List.map (fun e -> e.Table1.signature) Table1.float_entries
  in
  Sweep_f64.sweep ~extra_sigs:table1 ()

(* Twenty-four fresh F32 kernels, orders 1 to 3 with one to three taps,
   each first used on NaNs of both signs and infinities. *)
let test_first_use_edge_input () =
  skip_without_cc ();
  let g = Splitmix.create 0xf1257 in
  let coeff () = Plr_util.F32.round (Splitmix.float_in g ~lo:0.1 ~hi:0.9) in
  Sweep_f32.edge_first_use
    (List.init 24 (fun i ->
         float_sig
           (Array.init (1 + (i mod 3)) (fun _ -> coeff ()))
           (Array.init (1 + (i / 3 mod 3)) (fun _ -> coeff ()))))

(* ------------------------------------------------ run_into contract *)

(* A validated kernel writes [Array.length src] outputs straight through
   [dst]'s pointer: a short [dst] would write past its end, and
   [dst == src] would read inputs it has already overwritten.  Both are
   refused before the kernel runs. *)
let test_run_into_contract () =
  skip_without_cc ();
  let lp2 = Signature.map Plr_util.F32.round Table1.low_pass2.Table1.signature in
  let fplan = JBf.F.of_feedback ~feedback:lp2.Signature.feedback ~m:64 () in
  let jb =
    match JBf.prepare ~mode:`Sync ~fplan lp2 with
    | Some jb -> jb
    | None -> Alcotest.fail "prepare returned None with a toolchain present"
  in
  let n = 1 lsl 16 in
  let src = Array.init n (fun i -> Plr_util.F32.round (sin (float_of_int i))) in
  check_bool "first use validates" true
    (JBf.run_into jb ~src ~dst:(Array.make n 0.0));
  check_bool "validated" true (JBf.validated jb);
  let rejects what dst =
    check_bool what true
      (match JBf.run_into jb ~src ~dst with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "short dst raises" (Array.make 16 0.0);
  rejects "dst == src raises" src

(* --------------------------------------------------- degradation pins *)

let prefix_sum = int_sig [| 1 |] [| 1 |]

let test_disabled_env () =
  with_env "PLR_JIT" "off" (fun () ->
      let fplan =
        JBi.F.of_feedback ~feedback:prefix_sum.Signature.feedback ~m:64 ()
      in
      check_bool "prepare refuses when PLR_JIT=off" true
        (JBi.prepare ~fplan prefix_sum = None))

let test_no_toolchain () =
  with_env "PLR_JIT_CC" "/nonexistent/plr-no-such-cc" (fun () ->
      check_bool "toolchain_available false" false (Jit.toolchain_available ());
      let fplan =
        JBi.F.of_feedback ~feedback:prefix_sum.Signature.feedback ~m:64 ()
      in
      (* the fallback instant must be recorded on this path *)
      Trace.reset ();
      Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Trace.set_enabled false)
        (fun () ->
          check_bool "prepare refuses without a toolchain" true
            (JBi.prepare ~fplan prefix_sum = None);
          let fallbacks =
            List.filter
              (fun (e : Trace.event) ->
                e.Trace.name = "jit.fallback" && e.Trace.cat = Trace.Jit)
              (Trace.collect ())
          in
          check_bool "jit.fallback instant recorded" true (fallbacks <> [])))

let test_compile_failure_degrades () =
  skip_without_cc ();
  let jb =
    JBi.prepare_source ~mode:`Sync ~source:"this is not a C program {"
      prefix_sum
  in
  (match JBi.state jb with
  | Plr_jit.Jit.Failed _ -> ()
  | _ -> Alcotest.fail "broken source should fail to build");
  check_bool "run answers None on build failure" true
    (JBi.run jb [| 1; 2; 3 |] = None);
  (* the guard's dispatch still produces correct output via the fallback *)
  let module G = Plr_robust.Guard.Make (Scalar.Int) in
  let module Sr = Plr_serial.Serial.Make (Scalar.Int) in
  let x = Array.init 300 (fun i -> (i mod 17) - 8) in
  let runner = G.jit_runner ~jit:jb ~fallback:(G.multicore_runner ()) in
  let o = G.run ~check:Plr_robust.Guard.Full runner prefix_sum x in
  check_bool "guard output correct through fallback" true
    (o.G.output = Sr.full prefix_sum x)

let test_mismatch_poisons () =
  skip_without_cc ();
  (* a kernel for a DIFFERENT signature: builds and runs fine, but its
     output cannot match the reference — a checked use must poison it *)
  let other = int_sig [| 1 |] [| 2 |] in
  let fplan = JBi.F.of_feedback ~feedback:other.Signature.feedback ~m:64 () in
  let wrong_source = JBi.C.emit ~fplan other in
  let jb = JBi.prepare_source ~mode:`Sync ~source:wrong_source prefix_sum in
  (* First uses too short to reach the steady-state loop (prologue 1,
     then k + 1 = 2 outputs) agree with the reference, and must not
     validate the kernel. *)
  List.iter
    (fun x ->
      let what = Printf.sprintf "first use on %d elements" (Array.length x) in
      check_bool (what ^ " answers") true (JBi.run jb x = Some x);
      check_bool (what ^ " does not validate") false (JBi.validated jb))
    [ [||]; [| 1 |] ];
  check_bool "mismatching kernel rejected on a long enough use" true
    (JBi.run jb [| 1; 1; 1; 1; 1; 1 |] = None);
  check_bool "kernel poisoned" true (JBi.poisoned jb);
  check_bool "stays rejected" true (JBi.run jb [| 1; 2; 3 |] = None)

(* ------------------------------------------------------ on-disk cache *)

let test_so_cache_reuse () =
  skip_without_cc ();
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "plr-jit-test-%d" (Unix.getpid ()))
  in
  with_env "PLR_JIT_CACHE" dir (fun () ->
      let fplan =
        JBi.F.of_feedback ~feedback:[| 2; -1 |] ~m:64 ()
      in
      let s = int_sig [| 1 |] [| 2; -1 |] in
      let source = JBi.C.emit ~fplan s in
      let before = Atomic.get Jit.cc_invocations in
      (match Jit.compile_and_load ~source with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "cold build failed: %s" e);
      check_int "cold build invokes cc once" (before + 1)
        (Atomic.get Jit.cc_invocations);
      (* warm: the .so is on disk — dlopen only, zero cc invocations *)
      (match Jit.compile_and_load ~source with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warm build failed: %s" e);
      check_int "warm build invokes cc zero times" (before + 1)
        (Atomic.get Jit.cc_invocations);
      (* and a second plan build through the registry shares the cell *)
      let cell = Jit.get_or_build ~mode:`Sync source in
      ignore (Jit.wait cell);
      check_int "registry build invokes cc zero times" (before + 1)
        (Atomic.get Jit.cc_invocations))

(* ------------------------------------------------------------- chaos *)

let test_chaos_with_jit () =
  let module Ch = Plr_robust.Chaos.Make (Scalar.Int) in
  let s = int_sig [| 1 |] [| 1; 1 |] in
  let summary, results =
    Ch.campaign ~trials:40 ~seed:0xc4a05 ~target:Plr_robust.Chaos.Jit s
  in
  check_int "all trials ran" 40 summary.Plr_robust.Chaos.trials;
  check_int "zero silent divergence" 0 summary.Plr_robust.Chaos.silent;
  (* odd seeds bypass the JIT, so the faulted fallback path ran too *)
  check_bool "some trials injected faults" true
    (summary.Plr_robust.Chaos.injected > 0);
  ignore results

let () =
  Alcotest.run "jit"
    [
      ( "emitter",
        [
          Alcotest.test_case "emit basics" `Quick test_emit_basics;
        ] );
      ( "bitwise",
        [
          Alcotest.test_case "int sweep" `Quick test_sweep_int;
          Alcotest.test_case "f32 sweep (Table 1)" `Quick test_sweep_f32;
          Alcotest.test_case "f64 sweep (Table 1)" `Quick test_sweep_f64;
          Alcotest.test_case "f32 first use on NaNs and infinities" `Quick
            test_first_use_edge_input;
          Alcotest.test_case "run_into rejects a bad dst" `Quick
            test_run_into_contract;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "PLR_JIT=off" `Quick test_disabled_env;
          Alcotest.test_case "no toolchain" `Quick test_no_toolchain;
          Alcotest.test_case "compile failure" `Quick
            test_compile_failure_degrades;
          Alcotest.test_case "mismatch poisons" `Quick test_mismatch_poisons;
        ] );
      ( "cache",
        [ Alcotest.test_case ".so reuse" `Quick test_so_cache_reuse ] );
      ( "chaos",
        [ Alcotest.test_case "jit target" `Quick test_chaos_with_jit ] );
    ]
