(* The disabled-sink tracing overhead check: one disabled trace point,
   timed directly, against the measured multicore lp2 baseline. *)

module Scalar = Plr_util.Scalar
module Pool = Plr_exec.Pool
module Mf = Plr_multicore.Multicore.Make (Scalar.F32)

type overhead = {
  site_ns : float;  (** one disabled begin/end pair, nanoseconds *)
  per_elem_ns : float;  (** implied cost per element at the default chunking *)
  baseline_ns_per_elem : float;  (** measured multicore lp2 ns/elem *)
  overhead_frac : float;  (** per_elem_ns / baseline_ns_per_elem *)
}

(* The instrumentation budget per chunk: engine/multicore record a fixed
   handful of spans and instants per chunk (mc.chunk, mc.lookback,
   mc.correct, two publishes, pool.task, …) — 8 pairs is an upper bound. *)
let trace_points_per_chunk = 8

let time_best reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let trace_overhead ?(n = 1 lsl 18) ?domains () =
  assert (not (Plr_trace.Trace.enabled ()));
  let iters = 2_000_000 in
  let site () =
    let t0 = Unix.gettimeofday () in
    for i = 0 to iters - 1 do
      Plr_trace.Trace.begin_span2 Plr_trace.Trace.Multicore "mc.chunk" i 0;
      Plr_trace.Trace.end_span ()
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (Sys.opaque_identity (site ()));
  let site_ns = time_best 3 site *. 1e9 /. float_of_int iters in
  let pool = Pool.get ?domains () in
  let chunk = Mf.default_chunk_size ~domains:(Pool.size pool) n in
  let per_elem_ns =
    site_ns *. float_of_int trace_points_per_chunk /. float_of_int chunk
  in
  let gf = Plr_util.Splitmix.create 92 in
  let xf =
    Array.init n (fun _ -> Plr_util.Splitmix.float_in gf ~lo:(-1.0) ~hi:1.0)
  in
  let lp2 = Signature.map Plr_util.F32.round Table1.low_pass2.Table1.signature in
  let run () = Mf.run ~pool lp2 xf in
  (* One warm-up call outside the timer, so pool wake-up and factor-plan
     compilation are not charged to the first rep. *)
  ignore (Sys.opaque_identity (run ()));
  let baseline_ns_per_elem = time_best 3 run *. 1e9 /. float_of_int n in
  {
    site_ns;
    per_elem_ns;
    baseline_ns_per_elem;
    overhead_frac = per_elem_ns /. baseline_ns_per_elem;
  }

let render_overhead fmt o =
  Format.fprintf fmt
    "disabled trace point: %.2f ns/pair@,\
     implied per element:  %.4f ns (%d points/chunk at default chunking)@,\
     lp2 multicore:        %.2f ns/elem@,\
     overhead:             %.3f%% (budget 2%%)@."
    o.site_ns o.per_elem_ns trace_points_per_chunk o.baseline_ns_per_elem
    (o.overhead_frac *. 100.0)
