(* scan-batch: the second user of decoupled look-back (pair carries) and
   the run-length path.  Rounds of [Scan.run ~pool] on a dense integer
   coefficient stream and one-shot [Scan.sparse] on a 90%-identity one.
   Paired with const-batch so that a look-back protocol shared by both
   cannot win on one and lose on the other unseen. *)

open Bench
module Pool = Plr_exec.Pool
module Sc = Plr_scan.Scan.Make (Scalar.Int)

let name = "scan-batch"
let events_per_s = 2_000
let domains = 2

(* Each 320-element period opens with an identity run (a = 1, b = 0)
   covering [identity] of it and closes dense, so the advertised
   fraction is what the run-length path sees. *)
let streams ~n ~identity g =
  let a = Array.make n 1 and b = Array.make n 0 in
  let period = 320 in
  let ident_len = int_of_float (identity *. float_of_int period) in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + period) in
    for j = min stop (!i + ident_len) to stop - 1 do
      a.(j) <- Splitmix.int_in g ~lo:(-2) ~hi:2;
      b.(j) <- small_int g
    done;
    i := stop
  done;
  (a, b)

let run (ctx : ctx) =
  let n = batch_n ctx in
  let da, db = streams ~n ~identity:0.0 (rng ~seed:ctx.seed 3) in
  let sa, sb = streams ~n ~identity:0.9 (rng ~seed:ctx.seed 4) in
  let t0 = now () in
  let pool = Pool.get ~domains () in
  let call_run () = span "bench.scan.run" (fun () -> Sc.run ~pool da db) in
  let call_sparse () = span "bench.scan.sparse" (fun () -> Sc.sparse sa sb) in
  ignore (call_run ());
  ignore (call_sparse ());
  let setup_s = now () -. t0 in
  if ctx.setup_only then { setup_s; attempted = 0; failed = 0; metrics = [] }
  else begin
    let op tag call expected =
      let out = ref [||] in
      {
        Batch.tag;
        elems = n;
        run = (fun () -> out := call ());
        check =
          (fun () ->
            let ok = ints_equal ~expected !out in
            out := [||];
            ok);
      }
    in
    let ops =
      [
        op "run" call_run (ints_of_array (Sc.serial da db));
        op "sparse" call_sparse (ints_of_array (Sc.serial sa sb));
      ]
    in
    let st, ph = Layers.phase ctx (fun () -> Batch.run ~seconds:ctx.seconds ops) in
    (* One-shot [sparse] splits into the run-length detection pass, the
       kernel over prebuilt runs, and the output allocation; [serial_into]
       on the same stream is the dense baseline. *)
    let layers lt =
      let runs = Sc.Runs.build sa sb in
      let dst = Array.make n 0 in
      [
        metric "scan.run.ns_per_elem" "ns/elem" (Batch.ns_per_elem st ~tag:"run" ~n);
        metric "scan.sparse.ns_per_elem" "ns/elem"
          (Batch.ns_per_elem st ~tag:"sparse" ~n);
        metric "scan.runs_build.ns_per_elem" "ns/elem"
          (Batch.probe_ns ~n (fun () -> ignore (Sc.Runs.build sa sb)));
        metric "scan.sparse_into.ns_per_elem" "ns/elem"
          (Batch.probe_ns ~n (fun () -> Sc.sparse_into ~runs sa sb ~dst));
        metric "scan.serial_into.ns_per_elem" "ns/elem"
          (Batch.probe_ns ~n (fun () -> Sc.serial_into sa sb ~dst));
        metric "scan.chunk.self_frac" "frac" (Layers.self_frac lt "scan.chunk");
        metric "scan.lookback.self_frac" "frac" (Layers.self_frac lt "scan.lookback");
      ]
    in
    let metrics = Batch.metrics st ph ~n ~extra:layers in
    { setup_s; attempted = st.Batch.attempted; failed = st.Batch.failed; metrics }
  end
