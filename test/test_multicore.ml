(* Tests for the multicore CPU backend: equivalence with the serial
   algorithm across signatures, sizes, chunk shapes, and domain counts. *)

module Scalar = Plr_util.Scalar
module Mi = Plr_multicore.Multicore.Make (Scalar.Int)
module Mf = Plr_multicore.Multicore.Make (Scalar.F32)
module Si = Plr_serial.Serial.Make (Scalar.Int)
module Sf = Plr_serial.Serial.Make (Scalar.F32)

let check_ints = Alcotest.(check (array int))
let int_sig fwd fbk = Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

let gen = Plr_util.Splitmix.create 77
let random_ints n = Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-40) ~hi:40)

let signatures =
  [ int_sig [| 1 |] [| 1 |];
    int_sig [| 1 |] [| 0; 1 |];
    int_sig [| 1 |] [| 2; -1 |];
    int_sig [| 1 |] [| 3; -3; 1 |];
    int_sig [| 2; 1 |] [| 1; 1 |];
    int_sig [| 1; -1 |] [| 1 |] ]

let test_matches_serial () =
  List.iter
    (fun s ->
      let input = random_ints 20000 in
      check_ints
        (Signature.to_string string_of_int s)
        (Si.full s input) (Mi.run s input))
    signatures

let test_domain_counts () =
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let input = random_ints 15000 in
  let expected = Si.full s input in
  List.iter
    (fun d ->
      check_ints (Printf.sprintf "%d domains" d) expected (Mi.run ~domains:d s input))
    [ 1; 2; 3; 4; 8 ]

let test_chunk_shapes () =
  let s = int_sig [| 1 |] [| 3; -3; 1 |] in
  let input = random_ints 9973 in
  let expected = Si.full s input in
  List.iter
    (fun c ->
      check_ints (Printf.sprintf "chunk %d" c) expected
        (Mi.run ~domains:3 ~chunk_size:c s input))
    [ 1; 2; 3; 7; 64; 1000; 9973; 20000 ]

let test_edges () =
  let s = int_sig [| 1 |] [| 1 |] in
  check_ints "empty" [||] (Mi.run s [||]);
  check_ints "singleton" [| 5 |] (Mi.run s [| 5 |]);
  check_ints "two" [| 5; 8 |] (Mi.run s [| 5; 3 |])

let test_sequential_fallback () =
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let input = random_ints 5000 in
  check_ints "fallback" (Si.full s input) (Mi.run_sequential_fallback s input)

let test_float_filters () =
  List.iter
    (fun e ->
      let s = Signature.map Plr_util.F32.round e.Table1.signature in
      let input =
        Array.init 30000 (fun _ -> Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0)
      in
      match Sf.validate ~tol:1e-3 ~expected:(Sf.full s input) (Mf.run s input) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" e.Table1.name m)
    Table1.float_entries

(* ------------------------------------------------------------- streaming *)

module Stream_i = Plr_multicore.Stream.Make (Scalar.Int)
module Stream_f = Plr_multicore.Stream.Make (Scalar.F64)
module Sf64 = Plr_serial.Serial.Make (Scalar.F64)

let process_chunks stream chunks =
  Array.concat (List.map (Stream_i.process stream) chunks)

let chop input sizes =
  let rec go pos = function
    | [] -> if pos < Array.length input then [ Array.sub input pos (Array.length input - pos) ] else []
    | s :: rest ->
        let s = min s (Array.length input - pos) in
        if s <= 0 then []
        else Array.sub input pos s :: go (pos + s) rest
  in
  go 0 sizes

let test_stream_matches_offline () =
  let s = int_sig [| 2; 1 |] [| 2; -1 |] in
  let input = random_ints 5000 in
  let offline = Si.full s input in
  List.iter
    (fun sizes ->
      let stream = Stream_i.create s in
      let got = process_chunks stream (chop input sizes) in
      check_ints (Printf.sprintf "chunking %s" (String.concat "," (List.map string_of_int sizes)))
        offline got)
    [ [ 5000 ]; [ 1; 1; 1; 4997 ]; [ 1000; 1000; 1000; 1000; 1000 ];
      [ 1; 2; 3; 5; 8; 13; 21; 4947 ]; [ 2500; 2500 ] ]

let test_stream_reset () =
  let s = int_sig [| 1 |] [| 1 |] in
  let stream = Stream_i.create s in
  let a = Stream_i.process stream [| 1; 2; 3 |] in
  Stream_i.reset stream;
  let b = Stream_i.process stream [| 1; 2; 3 |] in
  check_ints "reset restores the zero state" a b;
  check_ints "prefix sum" [| 1; 3; 6 |] b

let test_stream_empty_chunks () =
  let s = int_sig [| 1 |] [| 1 |] in
  let stream = Stream_i.create s in
  check_ints "empty" [||] (Stream_i.process stream [||]);
  let a = Stream_i.process stream [| 5 |] in
  check_ints "after empty" [| 5 |] a;
  check_ints "empty mid-stream" [||] (Stream_i.process stream [||]);
  check_ints "state kept" [| 8 |] (Stream_i.process stream [| 3 |])

let test_stream_filter_audio_style () =
  (* float filter with multi-tap FIR across many small buffers *)
  let s = Table1.high_pass2.Table1.signature in
  let gen2 = Plr_util.Splitmix.create 314 in
  let input = Array.init 4096 (fun _ -> Plr_util.Splitmix.float_in gen2 ~lo:(-1.0) ~hi:1.0) in
  let offline = Sf64.full s input in
  let stream = Stream_f.create s in
  let buffers = List.init 16 (fun i -> Array.sub input (i * 256) 256) in
  let got = Array.concat (List.map (Stream_f.process stream) buffers) in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. offline.(i)) > 1e-9 *. Float.max 1.0 (Float.abs v) then
        Alcotest.failf "stream filter differs at %d" i)
    got

(* A shrinking property over the stream: random signatures of order 1–5
   with 1–4 taps, random splits (empty, single-element and shorter-than-k
   pieces included), pools of one and two domains, and NaN payloads,
   ±inf, −0.0, binary32 subnormals and ints next to [max_int]/[min_int]
   (wraparound) among the inputs and coefficients.  The concatenated
   output must be bitwise [Serial.full].  300 cases per scalar, 3000 with
   [QCHECK_LONG=1]; [QCHECK_SEED=N] fixes the seed. *)
module Stream_props (S : Scalar.S) = struct
  module Serial = Plr_serial.Serial.Make (S)
  module Stream = Plr_multicore.Stream.Make (S)

  let show (v : S.t) =
    match S.rep with
    | Scalar.Float_rep _ ->
        if Float.is_nan v then Printf.sprintf "nan(%Lx)" (Int64.bits_of_float v)
        else Printf.sprintf "%h" v
    | _ -> S.to_string v

  let show_array a =
    "[|" ^ String.concat "; " (Array.to_list (Array.map show a)) ^ "|]"

  let bitwise (a : S.t array) (b : S.t array) =
    Array.length a = Array.length b
    &&
    match S.rep with
    | Scalar.Float_rep _ ->
        Array.for_all2
          (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
          a b
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

  type case = {
    forward : S.t array;
    feedback : S.t array;
    domains : int;
    x : S.t array;
    sizes : int list;  (** piece lengths; the rest of [x] is the last piece *)
  }

  let print c =
    Printf.sprintf "{forward=%s; feedback=%s; domains=%d; sizes=[%s]; x=%s}"
      (show_array c.forward) (show_array c.feedback) c.domains
      (String.concat "; " (List.map string_of_int c.sizes))
      (show_array c.x)

  let gen =
    let open QCheck2.Gen in
    let* k = int_range 1 5 in
    let* taps = int_range 1 4 in
    let* forward = coeffs taps and* feedback = coeffs k in
    let* domains = int_range 1 2 in
    let* x = array_size (int_range 0 (12 * k)) value in
    let+ sizes =
      list_size (int_range 0 12)
        (oneof [ return 0; return 1; int_range 0 (k - 1); int_range 0 (4 * k) ])
    in
    { forward; feedback; domains; x; sizes }

  let pools = lazy (Array.init 2 (fun i -> Plr_exec.Pool.get ~domains:(i + 1) ()))

  let split x sizes =
    let n = Array.length x in
    let rec go pos = function
      | [] -> [ Array.sub x pos (n - pos) ]
      | len :: rest ->
          let len = min len (n - pos) in
          Array.sub x pos len :: go (pos + len) rest
    in
    go 0 sizes

  let agrees c =
    let s =
      Signature.create ~is_zero:S.is_zero ~forward:c.forward
        ~feedback:c.feedback
    in
    let st = Stream.create ~pool:(Lazy.force pools).(c.domains - 1) s in
    bitwise (Serial.full s c.x)
      (Array.concat (List.map (Stream.process st) (split c.x c.sizes)))

  let test =
    let scalar =
      match S.rep with
      | Scalar.Float_rep Scalar.Round_f32 -> "f32"
      | Scalar.Float_rep Scalar.Exact -> "f64"
      | _ -> S.ctype
    in
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:(scalar ^ " stream = Serial.full over any split")
         ~count:300 ~long_factor:10 ~print gen agrees)
end

module Stream_props_int = Stream_props (Scalar.Int)
module Stream_props_f32 = Stream_props (Scalar.F32)
module Stream_props_f64 = Stream_props (Scalar.F64)

let prop_equivalence =
  let gen_case =
    QCheck2.Gen.(
      let coeff = int_range (-3) 3 in
      let fb =
        map
          (fun (l, last) -> Array.of_list (l @ [ (if last = 0 then 1 else last) ]))
          (pair (list_size (int_range 0 2) coeff) coeff)
      in
      triple fb
        (list_size (int_range 0 500) (int_range (-9) 9))
        (pair (int_range 1 4) (int_range 1 600)))
  in
  QCheck2.Test.make ~name:"multicore ≡ serial on random cases" ~count:150 gen_case
    (fun (feedback, l, (domains, chunk_size)) ->
      let s = int_sig [| 1 |] feedback in
      let input = Array.of_list l in
      Mi.run ~domains ~chunk_size s input = Si.full s input)

let () =
  Alcotest.run "plr_multicore"
    [
      ( "equivalence",
        [
          Alcotest.test_case "signatures" `Quick test_matches_serial;
          Alcotest.test_case "domain counts" `Quick test_domain_counts;
          Alcotest.test_case "chunk shapes" `Quick test_chunk_shapes;
          Alcotest.test_case "edges" `Quick test_edges;
          Alcotest.test_case "sequential fallback" `Quick test_sequential_fallback;
          Alcotest.test_case "float filters" `Quick test_float_filters;
          QCheck_alcotest.to_alcotest prop_equivalence;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "matches offline" `Quick test_stream_matches_offline;
          Alcotest.test_case "reset" `Quick test_stream_reset;
          Alcotest.test_case "empty chunks" `Quick test_stream_empty_chunks;
          Alcotest.test_case "audio-style buffers" `Quick test_stream_filter_audio_style;
          Stream_props_int.test;
          Stream_props_f32.test;
          Stream_props_f64.test;
        ] );
    ]
