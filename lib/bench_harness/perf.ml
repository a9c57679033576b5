(* Wall-clock smoke suite over the real OCaml backends, with a
   machine-readable export (BENCH_PLR.json) for CI tracking.

   Unlike {!Micro} (Bechamel, statistically careful, slow) this module is
   deliberately cheap: best-of-[reps] wall time per (suite, variant) pair,
   so CI can run it on every push.  The suites are chosen to exercise each
   factor specialization of the shared {!Plr_factors.Factor_plan}:
   prefix-sum (all-equal), order2 (dense/periodic), tuple2 (0/1
   conditional add), lp2 (decaying float filter, FTZ tail skip). *)

module Scalar = Plr_util.Scalar
module Opts = Plr_factors.Opts
module Pool = Plr_exec.Pool
module Si = Plr_serial.Serial.Make (Scalar.Int)
module Sf = Plr_serial.Serial.Make (Scalar.F32)
module Mi = Plr_multicore.Multicore.Make (Scalar.Int)
module Mf = Plr_multicore.Multicore.Make (Scalar.F32)
module Stream_i = Plr_multicore.Stream.Make (Scalar.Int)
module Stream_f = Plr_multicore.Stream.Make (Scalar.F32)
module Tune = Plr_core.Tune
module Tc_int = Tune.Cpu (Scalar.Int)
module Tc_f32 = Tune.Cpu (Scalar.F32)
module Ji = Plr_jit.Backend.Make (Scalar.Int)
module Jf = Plr_jit.Backend.Make (Scalar.F32)
module Fpi = Plr_factors.Factor_plan.Make (Scalar.Int)
module Fpf = Plr_factors.Factor_plan.Make (Scalar.F32)
module Sci = Plr_scan.Scan.Make (Scalar.Int)

(* Matches the multicore backend's factor-period bound (and the serve
   layer's), so a precompiled plan is exactly what the engine would have
   built for itself. *)
let cpu_max_period = 64

type row = {
  suite : string;
  variant : string;
  n : int;
  domains : int;
  chunk_size : int;
  window : int;
  ns_per_elem : float;
  median_ns_per_elem : float;
  speedup_vs_serial : float;
}

let default_n = 1 lsl 18

(* Best and median of [reps] timed runs: the best tracks the machine's
   capability, the median its noise level. *)
let time_stats reps f =
  let reps = max 1 reps in
  let times = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    times.(i) <- Unix.gettimeofday () -. t0
  done;
  Array.sort compare times;
  let median =
    if reps land 1 = 1 then times.(reps / 2)
    else (times.((reps / 2) - 1) +. times.(reps / 2)) /. 2.0
  in
  (times.(0), median)

let time_best reps f = fst (time_stats reps f)

(* One warm-up call outside the timer so pool wake-up and factor-plan
   compilation are not charged to the first rep. *)
let measure reps f =
  ignore (Sys.opaque_identity (f ()));
  time_stats reps f

(* Each variant carries the schedule knobs it ran with — the tuning a
   reader needs to attribute a row ([(0, 0)] marks "not applicable":
   the serial code has no chunking and the stream re-chooses per
   piece). *)
let suite_rows ~reps suite n variants =
  let timed =
    List.map (fun (name, knobs, f) -> (name, knobs, measure reps f)) variants
  in
  let serial_t =
    match
      List.find_opt (fun (name, _, _) -> name = "serial") timed
    with
    | Some (_, _, (best, _)) -> best
    | None -> invalid_arg "suite_rows: no serial variant"
  in
  List.map
    (fun (variant, (vdomains, chunk_size, window), (best, median)) ->
      {
        suite;
        variant;
        n;
        domains = vdomains;
        chunk_size;
        window;
        ns_per_elem = best *. 1e9 /. float_of_int n;
        median_ns_per_elem = median *. 1e9 /. float_of_int n;
        speedup_vs_serial = serial_t /. best;
      })
    timed

let int_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

(* Feed the stream in 8 pieces so the boundary-correction sweep (the part
   the factor plan accelerates) actually runs. *)
let stream_chunks process create s x =
  let n = Array.length x in
  let chunk = max 1 ((n + 7) / 8) in
  let t = create s in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    ignore (process t (Array.sub x !pos len));
    pos := !pos + len
  done

let smoke ?(n = default_n) ?(reps = 3) ?(opts = Opts.all_on) ?domains () =
  let pool = Pool.get ?domains () in
  let domains = Pool.size pool in
  let gi = Plr_util.Splitmix.create 91 in
  let xi = Array.init n (fun _ -> Plr_util.Splitmix.int_in gi ~lo:(-50) ~hi:50) in
  let gf = Plr_util.Splitmix.create 92 in
  let xf =
    Array.init n (fun _ -> Plr_util.Splitmix.float_in gf ~lo:(-1.0) ~hi:1.0)
  in
  let lp2 = Signature.map Plr_util.F32.round Table1.low_pass2.Table1.signature in
  (* The knobs the untuned parallel variants actually run with. *)
  let dchunk = Mi.default_chunk_size ~domains n in
  let dwindow = Plr_multicore.Multicore.default_window ~pool_size:domains in
  let heuristic = (domains, dchunk, dwindow) in
  (* The jit variant: compile the per-signature native kernel up front
     (synchronously — build time must not land in a timed rep) and run
     one verification call, which also confirms bitwise identity with
     the serial reference.  Opportunistic like everywhere else: no
     toolchain or a failed build just drops the row with a notice. *)
  let jit_variant name prepare run =
    match prepare () with
    | Some jb when run jb <> None -> [ ("jit", (1, 0, 0), fun () -> ignore (run jb)) ]
    | _ ->
        Printf.eprintf
          "bench: jit variant unavailable for %s (disabled, no toolchain, or \
           build failed) — skipping the row\n%!"
          name;
        []
  in
  let int_suite name s =
    (* The tuned variant reports what a small measured search finds for
       this suite (heuristic-vs-tuned is the delta bench_compare.sh
       surfaces).  Every parallel variant runs against a precompiled
       factor plan sized to its own chunk: that is what serving does
       (plans are cached per signature), it is the steady state the
       measured search optimizes, and it keeps the tuned row from being
       charged a per-call recompile that grows with the tuned chunk
       size — the artifact behind tuned-slower-than-heuristic rows in
       earlier baselines. *)
    let tuned = (Tc_int.search ~opts ~reps:2 ~budget:8 ~pool ~n s).Tc_int.tuning in
    let tpool = Pool.get ~domains:tuned.Tune.domains () in
    let plan_for ~opts m =
      Fpi.of_feedback ~opts ~max_period:cpu_max_period
        ~feedback:s.Signature.feedback ~m:(max 1 m) ()
    in
    let heur_plan = plan_for ~opts dchunk in
    let noopt_plan = plan_for ~opts:Opts.all_off dchunk in
    let tuned_plan = plan_for ~opts tuned.Tune.chunk_size in
    let jit =
      jit_variant name
        (fun () ->
          Ji.prepare ~mode:`Sync
            ~fplan:
              (Ji.F.of_feedback ~opts ~feedback:s.Signature.feedback ~m:dchunk
                 ())
            s)
        (fun jb -> Ji.run jb xi)
    in
    suite_rows ~reps name n
    @@ [
        ("serial", (1, 0, 0), fun () -> ignore (Si.full s xi));
        ( "multicore",
          heuristic,
          fun () -> ignore (Mi.run ~opts ~plan:heur_plan ~pool s xi) );
        ( "multicore-noopt",
          heuristic,
          fun () ->
            ignore (Mi.run ~opts:Opts.all_off ~plan:noopt_plan ~pool s xi) );
        ( "multicore-tuned",
          (tuned.Tune.domains, tuned.Tune.chunk_size, tuned.Tune.window),
          fun () ->
            ignore
              (Mi.run ~opts ~plan:tuned_plan ~pool:tpool
                 ~chunk_size:tuned.Tune.chunk_size ~window:tuned.Tune.window s
                 xi) );
        ( "stream",
          (domains, 0, 0),
          fun () ->
            stream_chunks Stream_i.process
              (fun s -> Stream_i.create ~pool s)
              s xi );
      ]
    @ jit
  in
  let float_suite name s =
    let tuned = (Tc_f32.search ~opts ~reps:2 ~budget:8 ~pool ~n s).Tc_f32.tuning in
    let tpool = Pool.get ~domains:tuned.Tune.domains () in
    let plan_for ~opts m =
      Fpf.of_feedback ~opts ~max_period:cpu_max_period
        ~feedback:s.Signature.feedback ~m:(max 1 m) ()
    in
    let heur_plan = plan_for ~opts dchunk in
    let noopt_plan = plan_for ~opts:Opts.all_off dchunk in
    let tuned_plan = plan_for ~opts tuned.Tune.chunk_size in
    let jit =
      jit_variant name
        (fun () ->
          Jf.prepare ~mode:`Sync
            ~fplan:
              (Jf.F.of_feedback ~opts ~feedback:s.Signature.feedback ~m:dchunk
                 ())
            s)
        (fun jb -> Jf.run jb xf)
    in
    suite_rows ~reps name n
    @@ [
        ("serial", (1, 0, 0), fun () -> ignore (Sf.full s xf));
        ( "multicore",
          heuristic,
          fun () -> ignore (Mf.run ~opts ~plan:heur_plan ~pool s xf) );
        ( "multicore-noopt",
          heuristic,
          fun () ->
            ignore (Mf.run ~opts:Opts.all_off ~plan:noopt_plan ~pool s xf) );
        ( "multicore-tuned",
          (tuned.Tune.domains, tuned.Tune.chunk_size, tuned.Tune.window),
          fun () ->
            ignore
              (Mf.run ~opts ~plan:tuned_plan ~pool:tpool
                 ~chunk_size:tuned.Tune.chunk_size ~window:tuned.Tune.window s
                 xf) );
        ( "stream",
          (domains, 0, 0),
          fun () ->
            stream_chunks Stream_f.process
              (fun s -> Stream_f.create ~pool s)
              s xf );
      ]
    @ jit
  in
  (* Time-varying scans: a dense coefficient stream ("scan") and a
     90%-identity one ("scan-sparse", the run-length fast path's target
     shape).  Both suites share the serial chain as their baseline, so
     the sparse row's speedup_vs_serial is the fast-path headline. *)
  let scan_streams ~identity seed =
    (* Each 320-element period opens with an identity run covering
       exactly [identity] of it and closes dense, so the advertised
       fraction is what the fast path actually sees. *)
    let g = Plr_util.Splitmix.create seed in
    let sa = Array.make n 1 and sb = Array.make n 0 in
    let period = 320 in
    let ident_len = int_of_float (identity *. float_of_int period) in
    let i = ref 0 in
    while !i < n do
      let stop = min n (!i + period) in
      for j = min stop (!i + ident_len) to stop - 1 do
        sa.(j) <- Plr_util.Splitmix.int_in g ~lo:(-2) ~hi:2;
        sb.(j) <- Plr_util.Splitmix.int_in g ~lo:(-9) ~hi:9
      done;
      i := stop
    done;
    (sa, sb)
  in
  let scan_suite name ~identity seed =
    let sa, sb = scan_streams ~identity seed in
    let schunk = Plr_scan.Scan.default_chunk_size ~domains n in
    let swindow = Plr_scan.Scan.default_window ~pool_size:domains in
    let runs = Sci.Runs.build sa sb in
    (* The serial and sparse rows both run the steady-state shape (a
       precompiled runs plan, a caller-owned destination), so their
       ratio is the fast path's honest headline rather than a
       measurement of the allocator. *)
    let dst = Array.make n 0 in
    suite_rows ~reps name n
      [
        ("serial", (1, 0, 0), fun () -> Sci.serial_into sa sb ~dst);
        ( "sparse",
          (1, 0, 0),
          fun () -> Sci.sparse_into ~runs sa sb ~dst );
        ( "multicore",
          (domains, schunk, swindow),
          fun () ->
            ignore
              (Sci.run ~pool ~chunk_size:schunk ~window:swindow sa sb) );
        ( "stream",
          (domains, 0, 0),
          fun () ->
            let t = Sci.Stream.create ~pool () in
            let chunk = max 1 ((n + 7) / 8) in
            let pos = ref 0 in
            while !pos < n do
              let len = min chunk (n - !pos) in
              ignore
                (Sci.Stream.process t (Array.sub sa !pos len)
                   (Array.sub sb !pos len));
              pos := !pos + len
            done );
      ]
  in
  int_suite "prefix-sum" (int_sig [| 1 |] [| 1 |])
  @ int_suite "order2" (int_sig [| 1 |] [| 2; -1 |])
  @ int_suite "tuple2" (int_sig [| 1 |] [| 0; 1 |])
  @ float_suite "lp2" lp2
  @ scan_suite "scan" ~identity:0.0 93
  @ scan_suite "scan-sparse" ~identity:0.9 94

let render fmt rows =
  Format.fprintf fmt "@[<v>%-12s %-16s %10s %8s %9s %7s %12s %12s %10s@,"
    "suite" "variant" "n" "domains" "chunk" "window" "ns/elem" "median"
    "speedup";
  let knob v = if v = 0 then "-" else string_of_int v in
  List.iter
    (fun r ->
      Format.fprintf fmt "%-12s %-16s %10d %8d %9s %7s %12.2f %12.2f %9.2fx@,"
        r.suite r.variant r.n r.domains (knob r.chunk_size) (knob r.window)
        r.ns_per_elem r.median_ns_per_elem r.speedup_vs_serial)
    rows;
  Format.fprintf fmt "@]@."

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let to_json ?meta rows =
  let meta =
    match meta with Some m -> m | None -> Meta.to_json (Meta.collect ())
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"plr-bench-6\",\n";
  Buffer.add_string b (Printf.sprintf "  \"meta\": %s,\n" meta);
  Buffer.add_string b
    (Printf.sprintf "  \"recommended_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    { \"suite\": %S, \"variant\": %S, \"n\": %d, \"domains\": %d, \
            \"chunk_size\": %d, \"window\": %d, \
            \"ns_per_elem\": %s, \"median_ns_per_elem\": %s, \
            \"speedup_vs_serial\": %s }"
           r.suite r.variant r.n r.domains r.chunk_size r.window
           (json_float r.ns_per_elem)
           (json_float r.median_ns_per_elem)
           (json_float r.speedup_vs_serial)))
    rows;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Atomic export: a run that dies mid-write must not replace a good
   BENCH_PLR.json with a truncated one (CI diffs the file). *)
let write_json ~path ?meta rows =
  Plr_util.Fileio.atomic_write_string ~path (to_json ?meta rows)

(* ------------------------------------------------- tracing overhead *)

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

let trace_overhead ?(n = default_n) ?domains () =
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
  let best, _ = measure 3 (fun () -> ignore (Mf.run ~pool lp2 xf)) in
  let baseline_ns_per_elem = best *. 1e9 /. float_of_int n in
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
