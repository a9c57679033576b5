(* const-batch: the paper's algorithm on the CPU.  Rounds of one call
   each for integer prefix-sum (1: 1), order2 (1: 2, -1) and tuple2
   (1: 0, 1) through [Multicore.Make(Int).run], plus Table 1's lp2 on F32
   through [run_into] on unboxed buffers.  Look-back, the factor-plan
   classes (all-equal, dense, zero-one, decayed) and the pool do almost
   all the work; serve, JIT and scan do none. *)

open Bench
module Pool = Plr_exec.Pool
module Mi = Plr_multicore.Multicore.Make (Scalar.Int)
module Mf = Plr_multicore.Multicore.Make (Scalar.F32)
module Fpi = Plr_factors.Factor_plan.Make (Scalar.Int)
module Fpf = Plr_factors.Factor_plan.Make (Scalar.F32)
module Si = Plr_serial.Serial.Make (Scalar.Int)
module Sf = Plr_serial.Serial.Make (Scalar.F32)
module Ji = Plr_jit.Backend.Make (Scalar.Int)
module Jf = Plr_jit.Backend.Make (Scalar.F32)

let name = "const-batch"
let events_per_s = 5_000
let domains = 2

(* The multicore backend's own factor-period bound, so a precompiled plan
   is the one the engine would have built for itself. *)
let max_period = 64

let int_entries =
  [ ("ps", Table1.prefix_sum); ("order2", Table1.order2); ("tuple2", Table1.tuple2) ]

let run (ctx : ctx) =
  let n = batch_n ctx in
  let g = rng ~seed:ctx.seed 1 in
  let x = Array.init n (fun _ -> small_int g) in
  let g = rng ~seed:ctx.seed 2 in
  let xf = Buf.init n (fun _ -> F32.round (Splitmix.float_in g ~lo:(-1.0) ~hi:1.0)) in
  let lp2 = f32_sig Table1.low_pass2 in
  let dst = Buf.create n in
  let t0 = now () in
  let pool = Pool.get ~domains () in
  let m = Mi.default_chunk_size ~domains:(Pool.size pool) n in
  let compile_ms = ref [] in
  let compile tag f =
    let t = now () in
    let p = f () in
    compile_ms := (tag, (now () -. t) *. 1e3) :: !compile_ms;
    p
  in
  let iplans =
    List.map
      (fun (tag, e) ->
        let s = int_sig e in
        let feedback = s.Signature.feedback in
        (tag, s, compile tag (fun () -> Fpi.of_feedback ~max_period ~feedback ~m ())))
      int_entries
  in
  let fplan =
    compile "lp2" (fun () ->
        Fpf.of_feedback ~max_period ~feedback:lp2.Signature.feedback ~m ())
  in
  let call_int s plan () =
    span "bench.multicore.run" (fun () -> Mi.run ~plan ~pool s x)
  in
  let call_lp2 () =
    span "bench.multicore.run_into" (fun () ->
        Mf.run_into ~plan:fplan ~pool lp2 ~src:xf ~dst)
  in
  List.iter (fun (_, s, plan) -> ignore (call_int s plan ())) iplans;
  call_lp2 ();
  let setup_s = now () -. t0 in
  if ctx.setup_only then { setup_s; attempted = 0; failed = 0; metrics = [] }
  else begin
    let int_op (tag, s, plan) =
      let expected = ints_of_array (Si.full s x) in
      let out = ref [||] in
      {
        Batch.tag;
        elems = n;
        run = (fun () -> out := call_int s plan ());
        check =
          (fun () ->
            let ok = ints_equal ~expected !out in
            out := [||];
            ok);
      }
    in
    let expected_f = Buf.create n in
    Sf.full_into lp2 ~src:xf ~dst:expected_f;
    let scale = scale_of (Buf.uget expected_f) n in
    let lp2_op =
      {
        Batch.tag = "lp2";
        elems = n;
        run = call_lp2;
        check = (fun () -> buf_close ~scale ~expected:expected_f dst);
      }
    in
    let ops = List.map int_op iplans @ [ lp2_op ] in
    let st, ph = Layers.phase ctx (fun () -> Batch.run ~seconds:ctx.seconds ops) in
    (* The JIT's serial kernel is the fastest single-thread evaluator;
       without a C compiler the OCaml serial code stands in, under its own
       name. *)
    let best_serial () =
      let probe = Batch.probe_ns ~n in
      let ints =
        List.map
          (fun (tag, s, _) ->
            let fplan = Ji.F.of_feedback ~feedback:s.Signature.feedback ~m () in
            match Ji.prepare ~mode:`Sync ~fplan s with
            | Some jb when Ji.run jb x <> None ->
                (tag, "jit", probe (fun () -> ignore (Ji.run jb x)))
            | _ -> (tag, "serial", probe (fun () -> ignore (Si.full s x))))
          iplans
      in
      let tmp = Buf.create n in
      let fplan = Jf.F.of_feedback ~feedback:lp2.Signature.feedback ~m () in
      let run_jit jb () = Jf.run_into jb ~src:xf ~dst:tmp in
      ints
      @
      match Jf.prepare ~mode:`Sync ~fplan lp2 with
      | Some jb when run_jit jb () ->
          [ ("lp2", "jit", probe (fun () -> ignore (run_jit jb ()))) ]
      | _ ->
          [ ("lp2", "serial", probe (fun () -> Sf.full_into lp2 ~src:xf ~dst:tmp)) ]
    in
    let layers lt =
      let serial = best_serial () in
      let mc =
        List.map (fun (tag, _, _) -> (tag, Batch.ns_per_elem st ~tag ~n)) serial
      in
      let serial_total = List.fold_left (fun acc (_, _, ns) -> acc +. ns) 0.0 serial in
      let mc_total = List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 mc in
      let ns_metric what tag ns =
        metric (Printf.sprintf "%s.ns_per_elem.%s" what tag) "ns/elem" ns
      in
      List.rev_map
        (fun (tag, ms) -> metric ("factors.compile_ms." ^ tag) "ms" ms)
        !compile_ms
      @ List.map (fun (tag, ns) -> ns_metric "multicore" tag ns) mc
      @ List.map (fun (tag, what, ns) -> ns_metric what tag ns) serial
      @ [
          metric "multicore.speedup_vs_best_serial" "x" (serial_total /. mc_total);
          metric "mc.chunk.self_frac" "frac" (Layers.self_frac lt "mc.chunk");
          metric "mc.lookback.self_frac" "frac" (Layers.self_frac lt "mc.lookback");
          metric "mc.correct.self_frac" "frac" (Layers.self_frac lt "mc.correct");
        ]
    in
    let metrics = Batch.metrics st ph ~n ~extra:layers in
    { setup_s; attempted = st.Batch.attempted; failed = st.Batch.failed; metrics }
  end
