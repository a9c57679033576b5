(* Tests for the shared factor-compilation pipeline (Plr_factors):
   - unit coverage of the compiled forms and their accessors;
   - the cross-backend equivalence property: the modeled GPU engine, the
     multicore CPU backend, the streaming API, and the serial reference
     must agree on randomized signatures and inputs, with the factor
     optimizations both on and off (exact for integers, the paper's 1e-3
     bound for float32; the stream, which runs no factors, bitwise). *)

module Scalar = Plr_util.Scalar
module Spec = Plr_gpusim.Spec
module Opts = Plr_factors.Opts
module Analysis = Plr_nnacci.Analysis
module FPi = Plr_factors.Factor_plan.Make (Scalar.Int)
module FPf = Plr_factors.Factor_plan.Make (Scalar.F32)
module Si = Plr_serial.Serial.Make (Scalar.Int)
module Sf = Plr_serial.Serial.Make (Scalar.F32)
module Mi = Plr_multicore.Multicore.Make (Scalar.Int)
module Mf = Plr_multicore.Multicore.Make (Scalar.F32)
module Sti = Plr_multicore.Stream.Make (Scalar.Int)
module Stf = Plr_multicore.Stream.Make (Scalar.F32)
module Ei = Plr_core.Engine.Make (Scalar.Int)
module Ef = Plr_core.Engine.Make (Scalar.F32)

let spec = Spec.titan_x
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (array int))

let int_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

(* ------------------------------------------------ compiled-form units *)

let test_compiled_forms () =
  (* prefix sum: every correction factor is the constant 1 *)
  let fp = FPi.of_feedback ~feedback:[| 1 |] ~m:64 () in
  (match fp.FPi.compiled.(0) with
  | FPi.All_equal c -> check_int "all-equal constant" 1 c
  | _ -> Alcotest.fail "prefix sum should compile to All_equal");
  (* 2-tuple prefix sum: factors alternate 0/1 *)
  let fp = FPi.of_feedback ~feedback:[| 0; 1 |] ~m:64 () in
  Array.iteri
    (fun j c ->
      match c with
      | FPi.Zero_one _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "tuple2 list %d should be Zero_one" j))
    fp.FPi.compiled;
  (* alternating-sign recurrence: repeats with period 2, not 0/1 *)
  let fp = FPi.of_feedback ~feedback:[| -1 |] ~m:64 () in
  (match fp.FPi.compiled.(0) with
  | FPi.Repeating { period = 2; _ } -> ()
  | _ -> Alcotest.fail "feedback (-1) should compile to Repeating period 2");
  (* order-2 prefix sum: factors grow linearly — no specialization *)
  let fp = FPi.of_feedback ~feedback:[| 2; -1 |] ~m:64 () in
  (match fp.FPi.compiled.(0) with
  | FPi.Dense _ -> ()
  | _ -> Alcotest.fail "order2 should compile to Dense");
  (* a decaying float recurrence reaches exact zeros under FTZ *)
  let fp = FPf.of_feedback ~feedback:[| 0.5 |] ~m:256 () in
  match fp.FPf.compiled.(0) with
  | FPf.Decayed { cutoff; _ } ->
      check_bool "cutoff inside the list" true (cutoff > 0 && cutoff < 256);
      check_bool "zero_tail recorded" true (fp.FPf.zero_tail <> None)
  | _ -> Alcotest.fail "decaying filter should compile to Decayed"

let test_opts_gating () =
  (* with every toggle off, nothing specializes and the effective analysis
     degrades to General *)
  List.iter
    (fun feedback ->
      let fp = FPi.of_feedback ~opts:Opts.all_off ~feedback ~m:48 () in
      Array.iteri
        (fun j c ->
          (match c with
          | FPi.Dense _ -> ()
          | _ -> Alcotest.fail "all_off must compile to Dense");
          match FPi.effective fp j with
          | Analysis.General -> ()
          | _ -> Alcotest.fail "all_off effective analysis must be General")
        fp.FPi.compiled;
      check_bool "no zero tail under all_off" true (fp.FPi.zero_tail = None))
    [ [| 1 |]; [| 0; 1 |]; [| -1 |]; [| 2; -1 |] ]

let test_table_elems () =
  let elems feedback =
    let fp = FPi.of_feedback ~feedback ~m:64 () in
    FPi.table_elems fp 0
  in
  check_int "All_equal stores nothing" 0 (elems [| 1 |]);
  check_int "short-period 0/1 stores nothing" 0 (elems [| 0; 1 |]);
  check_int "Repeating stores one period" 2 (elems [| -1 |]);
  check_int "Dense stores the full list" 64 (elems [| 2; -1 |]);
  let fp = FPf.of_feedback ~feedback:[| 0.5 |] ~m:256 () in
  (match fp.FPf.compiled.(0) with
  | FPf.Decayed { cutoff; _ } ->
      check_int "Decayed stores the prefix" cutoff (FPf.table_elems fp 0)
  | _ -> Alcotest.fail "expected Decayed");
  (* value reads through every representation *)
  List.iter
    (fun feedback ->
      let fp = FPi.of_feedback ~feedback ~m:64 () in
      for j = 0 to fp.FPi.order - 1 do
        for q = 0 to fp.FPi.m - 1 do
          check_int
            (Printf.sprintf "value j=%d q=%d" j q)
            fp.FPi.raw.(j).(q) (FPi.value fp j q)
        done
      done)
    [ [| 1 |]; [| 0; 1 |]; [| -1 |]; [| 2; -1 |]; [| 3; -3; 1 |] ]

(* apply_list must equal both the raw dense sweep and a correct-fold,
   element for element. *)
let test_apply_list_equivalence () =
  let gen = Plr_util.Splitmix.create 5150 in
  List.iter
    (fun (feedback, opts) ->
      let m = 96 in
      let fp = FPi.of_feedback ~opts ~feedback ~m () in
      for j = 0 to fp.FPi.order - 1 do
        let carry = Plr_util.Splitmix.int_in gen ~lo:(-9) ~hi:9 in
        let y0 = Array.init m (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-9) ~hi:9) in
        let via_apply = Array.copy y0 in
        FPi.apply_list fp ~j ~carry via_apply ~base:0 ~len:m;
        let via_raw =
          Array.mapi (fun q v -> v + (fp.FPi.raw.(j).(q) * carry)) y0
        in
        check_ints (Printf.sprintf "apply_list = raw sweep (j=%d)" j) via_raw
          via_apply;
        let via_correct =
          Array.mapi (fun q v -> FPi.correct fp ~j ~q ~carry ~acc:v) y0
        in
        check_ints (Printf.sprintf "apply_list = correct fold (j=%d)" j)
          via_correct via_apply
      done)
    [ ([| 1 |], Opts.all_on); ([| 0; 1 |], Opts.all_on); ([| -1 |], Opts.all_on);
      ([| 2; -1 |], Opts.all_on); ([| 3; -3; 1 |], Opts.all_on);
      ([| 1 |], Opts.all_off); ([| -1 |], Opts.all_off) ]

(* The float path must be bitwise self-consistent too (the tolerance only
   buys slack *across* backends, not within one plan). *)
let test_apply_list_float_bitwise () =
  let gen = Plr_util.Splitmix.create 5151 in
  let m = 300 in
  let fp = FPf.of_feedback ~feedback:[| 1.6; -0.64 |] ~m () in
  for j = 0 to fp.FPf.order - 1 do
    let carry = Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0 in
    let y0 =
      Array.init m (fun _ -> Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0)
    in
    let via_apply = Array.copy y0 in
    FPf.apply_list fp ~j ~carry via_apply ~base:0 ~len:m;
    let via_correct =
      Array.mapi (fun q v -> FPf.correct fp ~j ~q ~carry ~acc:v) y0
    in
    check_bool
      (Printf.sprintf "float apply_list bitwise = correct fold (j=%d)" j)
      true
      (via_apply = via_correct)
  done

(* ------------------------------------- cross-backend equivalence sweep *)

let gen = Plr_util.Splitmix.create 20260806

let random_int_signature () =
  let k = Plr_util.Splitmix.int_in gen ~lo:1 ~hi:3 in
  let taps = Plr_util.Splitmix.int_in gen ~lo:1 ~hi:2 in
  let forward =
    Array.init taps (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-2) ~hi:2)
  in
  let feedback =
    Array.init k (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-2) ~hi:2)
  in
  if forward.(taps - 1) = 0 then forward.(taps - 1) <- 1;
  if feedback.(k - 1) = 0 then feedback.(k - 1) <- 1;
  int_sig forward feedback

let stream_int s x =
  let n = Array.length x in
  let t = Sti.create s in
  let out = Array.make n 0 in
  let pos = ref 0 in
  while !pos < n do
    let len = min (1 + Plr_util.Splitmix.int_in gen ~lo:0 ~hi:511) (n - !pos) in
    let piece = Sti.process t (Array.sub x !pos len) in
    Array.blit piece 0 out !pos len;
    pos := !pos + len
  done;
  out

let stream_f32 s x =
  let n = Array.length x in
  let t = Stf.create s in
  let out = Array.make n 0.0 in
  let pos = ref 0 in
  while !pos < n do
    let len = min (1 + Plr_util.Splitmix.int_in gen ~lo:0 ~hi:511) (n - !pos) in
    let piece = Stf.process t (Array.sub x !pos len) in
    Array.blit piece 0 out !pos len;
    pos := !pos + len
  done;
  out

let both_opts = [ ("all_on", Opts.all_on); ("all_off", Opts.all_off) ]

let test_cross_backend_int () =
  for case = 1 to 30 do
    let s = random_int_signature () in
    let n = Plr_util.Splitmix.int_in gen ~lo:256 ~hi:4096 in
    let input =
      Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-30) ~hi:30)
    in
    let expected = Si.full s input in
    let tag backend oname =
      Printf.sprintf "case %d %s %s/%s n=%d" case
        (Signature.to_string string_of_int s)
        backend oname n
    in
    List.iter
      (fun (oname, opts) ->
        let r = Ei.run ~opts ~spec s input in
        check_ints (tag "gpusim" oname) expected r.Ei.output;
        check_ints (tag "multicore" oname) expected (Mi.run ~opts s input))
      both_opts;
    check_ints (tag "stream" "") expected (stream_int s input)
  done

(* The single-pass look-back engine must agree with serial for every pool
   size: 1 (inline sequential schedule), 2 (smallest real protocol), and
   the machine's recommended count — with the factor optimizations on and
   off, over randomized signatures and chunk shapes small enough that
   each run spans many chunks and several look-back windows. *)
let test_cross_backend_domains () =
  let domain_counts =
    List.sort_uniq compare [ 1; 2; Domain.recommended_domain_count () ]
  in
  for case = 1 to 12 do
    let s = random_int_signature () in
    let n = Plr_util.Splitmix.int_in gen ~lo:512 ~hi:6000 in
    let chunk_size = Plr_util.Splitmix.int_in gen ~lo:16 ~hi:512 in
    let input =
      Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-30) ~hi:30)
    in
    let expected = Si.full s input in
    List.iter
      (fun (oname, opts) ->
        List.iter
          (fun d ->
            check_ints
              (Printf.sprintf "case %d %s domains=%d/%s n=%d chunk=%d" case
                 (Signature.to_string string_of_int s)
                 d oname n chunk_size)
              expected
              (Mi.run ~opts ~domains:d ~chunk_size s input))
          domain_counts)
      both_opts
  done

let test_cross_backend_float () =
  (* Table 1's filter designs: every float specialization shows up here —
     lp* decay to an exact-zero tail, hp* mix signs, all are stable *)
  List.iter
    (fun e ->
      let s = Signature.map Plr_util.F32.round e.Table1.signature in
      List.iter
        (fun n ->
          let input =
            Array.init n (fun _ ->
                Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0)
          in
          let expected = Sf.full s input in
          let ok backend oname out =
            match Sf.validate ~tol:1e-3 ~expected out with
            | Ok () -> ()
            | Error m ->
                Alcotest.fail
                  (Printf.sprintf "%s %s/%s n=%d: %s" e.Table1.name backend
                     oname n m)
          in
          List.iter
            (fun (oname, opts) ->
              let r = Ef.run ~opts ~spec s input in
              ok "gpusim" oname r.Ef.output;
              ok "multicore" oname (Mf.run ~opts s input))
            both_opts;
          (* a stream continues the serial recurrence: bitwise *)
          if
            not
              (Array.for_all2
                 (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
                 expected (stream_f32 s input))
          then Alcotest.failf "%s stream n=%d: not bitwise serial" e.Table1.name n)
        [ 300; 1111; 2048; 3999 ])
    Table1.float_entries

let () =
  Alcotest.run "plr_factors"
    [
      ( "factor_plan",
        [
          Alcotest.test_case "compiled forms" `Quick test_compiled_forms;
          Alcotest.test_case "opts gating" `Quick test_opts_gating;
          Alcotest.test_case "table elems + value" `Quick test_table_elems;
          Alcotest.test_case "apply_list equivalence" `Quick
            test_apply_list_equivalence;
          Alcotest.test_case "float bitwise self-consistency" `Quick
            test_apply_list_float_bitwise;
        ] );
      ( "cross-backend",
        [
          Alcotest.test_case "randomized int signatures" `Quick
            test_cross_backend_int;
          Alcotest.test_case "domain-count sweep" `Quick
            test_cross_backend_domains;
          Alcotest.test_case "Table 1 float filters" `Quick
            test_cross_backend_float;
        ] );
    ]
