(* Tests for the plr_util substrate: float32 emulation, scalar instances,
   polynomials, small matrices, the deterministic PRNG, atomic file
   writes and the allocation policy. *)

module F32 = Plr_util.F32
module Scalar = Plr_util.Scalar
module Poly = Plr_util.Poly
module Splitmix = Plr_util.Splitmix

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ F32 *)

let test_f32_rounding () =
  (* 0.1 is not representable in binary32; rounding must change it. *)
  check "0.1 rounds away from double" true (F32.round 0.1 <> 0.1);
  check_float "1.5 is exact in binary32" 1.5 (F32.round 1.5);
  check_float "round is idempotent" (F32.round 0.1) (F32.round (F32.round 0.1))

let test_f32_add_rounds () =
  (* 2^25 + 1 is not representable in binary32: the 1 is lost. *)
  let big = 33554432.0 in
  check_float "2^25 + 1 = 2^25 in f32" big (F32.add big 1.0);
  (* but it is fine in float64 *)
  check "double keeps the 1" true (big +. 1.0 <> big)

let test_f32_denormal () =
  check "2^-127 is denormal" true (F32.is_denormal 0x1p-127);
  check "2^-126 is normal" false (F32.is_denormal 0x1p-126);
  check "0 is not denormal" false (F32.is_denormal 0.0);
  check_float "flush kills denormals" 0.0 (F32.flush_denormal 0x1p-127);
  check_float "flush keeps normals" 1.0 (F32.flush_denormal 1.0)

let test_f32_mul_underflow () =
  (* Repeated multiplication by 0.8 underflows to denormals then, with
     flushing, to exact zero — the effect the paper's FTZ optimization
     exploits for filter factors. *)
  let v = ref 1.0 in
  for _ = 1 to 500 do
    v := F32.flush_denormal (F32.mul !v 0.8)
  done;
  check_float "0.8^500 flushes to zero in f32" 0.0 !v

(* --------------------------------------------------------------- Scalar *)

let test_scalar_int32_wraps () =
  let module I = Scalar.Int32s in
  check "max_int32 + 1 wraps" true
    (I.equal (I.add 2147483647l I.one) (-2147483648l))

let test_scalar_approx () =
  let module F = Scalar.F32 in
  check "within tol" true (F.approx_equal ~tol:1e-3 1.0 1.0005);
  check "outside tol" false (F.approx_equal ~tol:1e-3 1.0 1.01);
  check "relative tol on big values" true
    (F.approx_equal ~tol:1e-3 1.0e6 1.0005e6);
  let module I = Scalar.Int in
  check "ints must match exactly" false (I.approx_equal ~tol:1e9 3 4)

let test_scalar_kinds () =
  check "int kind" true (Scalar.Int.kind = Scalar.Integer);
  check "f32 kind" true (Scalar.F32.kind = Scalar.Floating);
  check_int "f32 is 4 bytes on device" 4 Scalar.F32.bytes;
  check_int "int models a 4-byte word" 4 Scalar.Int.bytes;
  Alcotest.(check string) "ctype int" "int" Scalar.Int.ctype;
  Alcotest.(check string) "ctype float" "float" Scalar.F32.ctype

(* ----------------------------------------------------------------- Poly *)

let poly = Alcotest.testable Poly.pp (Poly.equal ~tol:1e-9)

let test_poly_mul () =
  (* (1 - 0.8z)^2 = 1 - 1.6z + 0.64z^2: the 2-stage low-pass denominator. *)
  let p = Poly.of_coeffs [| 1.0; -0.8 |] in
  Alcotest.check poly "square" (Poly.of_coeffs [| 1.0; -1.6; 0.64 |]) (Poly.mul p p)

let test_poly_pow () =
  let p = Poly.of_coeffs [| 1.0; -0.8 |] in
  Alcotest.check poly "pow 3"
    (Poly.of_coeffs [| 1.0; -2.4; 1.92; -0.512 |])
    (Poly.pow p 3);
  Alcotest.check poly "pow 0" Poly.one (Poly.pow p 0);
  Alcotest.check poly "pow 1" p (Poly.pow p 1)

let test_poly_normalize () =
  let p = Poly.of_coeffs [| 1.0; 2.0; 0.0; 0.0 |] in
  check_int "trailing zeros dropped" 1 (Poly.degree p)

let test_poly_eval () =
  let p = Poly.of_coeffs [| 1.0; 2.0; 3.0 |] in
  check_float "horner" (1.0 +. 4.0 +. 12.0) (Poly.eval p 2.0)

let test_poly_add () =
  Alcotest.check poly "cancellation drops degree"
    (Poly.of_coeffs [| 2.0 |])
    (Poly.add (Poly.of_coeffs [| 1.0; 1.0 |]) (Poly.of_coeffs [| 1.0; -1.0 |]))

(* ----------------------------------------------------------------- Smat *)

module M = Plr_util.Smat.Make (Scalar.Int)

let test_smat_identity () =
  let a = [| [| 1; 2 |]; [| 3; 4 |] |] in
  check "I·A = A" true (M.mat_equal (M.mat_mul (M.identity 2) a) a);
  check "A·I = A" true (M.mat_equal (M.mat_mul a (M.identity 2)) a)

let test_smat_companion () =
  (* Companion of (b1, b2) advances the state (y1, y0) to
     (b1·y1 + b2·y0, y1). *)
  let c = M.companion [| 2; -1 |] in
  let v = M.mat_vec c [| 5; 3 |] in
  check_int "first" ((2 * 5) + (-1 * 3)) v.(0);
  check_int "second" 5 v.(1)

let test_smat_assoc () =
  let a = [| [| 1; 2 |]; [| 3; 4 |] |]
  and b = [| [| 5; 6 |]; [| 7; 8 |] |]
  and c = [| [| 9; 1 |]; [| 2; 3 |] |] in
  check "associativity" true
    (M.mat_equal (M.mat_mul (M.mat_mul a b) c) (M.mat_mul a (M.mat_mul b c)))

(* ------------------------------------------------------------- Splitmix *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Int64.equal (Splitmix.next a) (Splitmix.next b))
  done

let test_splitmix_seeds_differ () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  check "different seeds diverge" true
    (not (Int64.equal (Splitmix.next a) (Splitmix.next b)))

let test_splitmix_ranges () =
  let g = Splitmix.create 7 in
  for _ = 1 to 1000 do
    let v = Splitmix.int g ~bound:10 in
    check "int in range" true (v >= 0 && v < 10);
    let f = Splitmix.float g in
    check "float in range" true (f >= 0.0 && f < 1.0);
    let r = Splitmix.int_in g ~lo:(-5) ~hi:5 in
    check "int_in inclusive" true (r >= -5 && r <= 5)
  done

(* qcheck: rounding to f32 then comparing against the double result is
   always within f32's relative epsilon. *)
let prop_f32_accuracy =
  QCheck2.Test.make ~name:"f32 add within relative epsilon of f64"
    ~count:500
    QCheck2.Gen.(pair (float_bound_exclusive 1e6) (float_bound_exclusive 1e6))
    (fun (a, b) ->
      let a = F32.round a and b = F32.round b in
      let f32 = F32.add a b and f64 = a +. b in
      Float.abs (f32 -. f64) <= Float.max 1e-30 (Float.abs f64 *. 1.2e-7))

let prop_poly_mul_comm =
  let gen_poly =
    QCheck2.Gen.(
      map (fun l -> Poly.of_coeffs (Array.of_list l))
        (list_size (int_range 0 6) (float_range (-10.0) 10.0)))
  in
  QCheck2.Test.make ~name:"poly mul commutes" ~count:200
    QCheck2.Gen.(pair gen_poly gen_poly)
    (fun (a, b) -> Poly.equal ~tol:1e-6 (Poly.mul a b) (Poly.mul b a))

let prop_poly_eval_hom =
  let gen_poly =
    QCheck2.Gen.(
      map (fun l -> Poly.of_coeffs (Array.of_list l))
        (list_size (int_range 0 5) (float_range (-3.0) 3.0)))
  in
  QCheck2.Test.make ~name:"eval is a ring hom: (p·q)(x) = p(x)·q(x)"
    ~count:200
    QCheck2.Gen.(triple gen_poly gen_poly (float_range (-2.0) 2.0))
    (fun (p, q, x) ->
      let lhs = Poly.eval (Poly.mul p q) x and rhs = Poly.eval p x *. Poly.eval q x in
      Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 (Float.abs rhs))

(* --------------------------------------------------------------- fileio *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_fileio_atomic () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "plr_fileio_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "out.json" in
  Plr_util.Fileio.atomic_write_string ~path "first";
  check "write lands" true (read_file path = "first");
  (* A raising writer must leave the previous content untouched and no
     temporary file behind — that is the whole point of the temp+rename
     protocol used by the bench/serve/trace exporters. *)
  (try
     Plr_util.Fileio.atomic_write ~path (fun oc ->
         output_string oc "partial";
         failwith "boom");
     check "writer exception propagates" true false
   with Failure _ -> ());
  check "old content survives a failed write" true (read_file path = "first");
  check_int "no temp leftovers" 1 (Array.length (Sys.readdir dir));
  Plr_util.Fileio.atomic_write_string ~path "second";
  check "overwrite commits" true (read_file path = "second");
  Sys.remove path;
  Unix.rmdir dir

(* ---------------------------------------------------------------- alloc *)

let skip_because reason =
  Printf.printf "skipped: %s\n" reason;
  Alcotest.skip ()

(* The process's minor page faults so far: field 10 of /proc/self/stat,
   counted after the command name's closing parenthesis, since the name
   may hold spaces.  [None] where the file cannot be read. *)
let minor_faults () =
  match open_in "/proc/self/stat" with
  | exception Sys_error _ -> None
  | ic -> (
      let line =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
      in
      let after = String.rindex line ')' + 2 in
      let fields =
        String.split_on_char ' '
          (String.sub line after (String.length line - after))
      in
      match List.nth_opt fields 7 with
      | Some f -> int_of_string_opt f
      | None -> None)

(* This suite creates no pool: the policy holds from start-up alone.  A
   second 2^22-element output, made after the first was collected,
   reuses the first one's pages instead of faulting in 8192 fresh ones. *)
let test_alloc_policy () =
  (match Plr_util.Alloc.status with
  | Plr_util.Alloc.Applied -> ()
  | Plr_util.Alloc.Refused -> Alcotest.fail "glibc refused the policy"
  | Plr_util.Alloc.Not_glibc -> skip_because "not built against glibc");
  let n = 1 lsl 22 in
  let pages = n * 8 / 4096 in
  Gc.full_major ();
  ignore (Sys.opaque_identity (Array.make n 0));
  Gc.full_major ();
  match minor_faults () with
  | None -> skip_because "/proc/self/stat cannot be read"
  | Some before ->
      let second = Sys.opaque_identity (Array.make n 0) in
      let faults = Option.get (minor_faults ()) - before in
      check_int "second output's length" n (Array.length second);
      if faults * 100 >= pages then
        Alcotest.failf "the second output took %d minor faults over %d pages"
          faults pages

let () =
  Alcotest.run "plr_util"
    [
      ( "f32",
        [
          Alcotest.test_case "rounding" `Quick test_f32_rounding;
          Alcotest.test_case "add rounds" `Quick test_f32_add_rounds;
          Alcotest.test_case "denormals" `Quick test_f32_denormal;
          Alcotest.test_case "mul underflow" `Quick test_f32_mul_underflow;
          QCheck_alcotest.to_alcotest prop_f32_accuracy;
        ] );
      ( "scalar",
        [
          Alcotest.test_case "int32 wraps" `Quick test_scalar_int32_wraps;
          Alcotest.test_case "approx equal" `Quick test_scalar_approx;
          Alcotest.test_case "kinds" `Quick test_scalar_kinds;
        ] );
      ( "poly",
        [
          Alcotest.test_case "mul" `Quick test_poly_mul;
          Alcotest.test_case "pow" `Quick test_poly_pow;
          Alcotest.test_case "normalize" `Quick test_poly_normalize;
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "add" `Quick test_poly_add;
          QCheck_alcotest.to_alcotest prop_poly_mul_comm;
          QCheck_alcotest.to_alcotest prop_poly_eval_hom;
        ] );
      ( "smat",
        [
          Alcotest.test_case "identity" `Quick test_smat_identity;
          Alcotest.test_case "companion" `Quick test_smat_companion;
          Alcotest.test_case "associativity" `Quick test_smat_assoc;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_splitmix_seeds_differ;
          Alcotest.test_case "ranges" `Quick test_splitmix_ranges;
        ] );
      ( "fileio",
        [ Alcotest.test_case "atomic write" `Quick test_fileio_atomic ] );
      ( "alloc",
        [
          Alcotest.test_case "freed output pages are reused" `Quick
            test_alloc_policy;
        ] );
    ]
