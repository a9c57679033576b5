(* serve-open: independent users of the serving layer, as an open loop.
   Arrivals are due every 1/rps seconds whatever the server does; 90%
   call [submit] on one of the 11 Table 1 signatures (Zipf 1.1
   popularity), 10% call [submit_scan] on a dense F32 stream.  Routing,
   the plan cache, the guard and the JIT do the work; multicore is
   bypassed because the JIT answers first and each shard's one-domain
   pool runs inline. *)

open Bench
module Serve = Plr_serve.Serve
module Metrics = Plr_serve.Metrics
module Srv = Serve.Make (Scalar.F32)
module JB = Plr_jit.Backend.Make (Scalar.F32)
module Sf = Plr_serial.Serial.Make (Scalar.F32)
module Scf = Plr_scan.Scan.Make (Scalar.F32)

let name = "serve-open"
let events_per_s = 15_000
let generators = 2
let sizes = [| 512; 1024; 4096; 32768 |]
let variants = 4
let scan_share = 0.1
let zipf = 1.1

(* Deadline after the due time.  The smoke check, which shares the
   machine with the rest of the test suite, allows far more: it checks the
   plumbing, not the speed. *)
let deadline_s (ctx : ctx) = if ctx.smoke then 10.0 else 0.25

(* The goodput SLO: 10 ms sits about at the measured p99.9. *)
let slo_s = 0.010

(* A generator sleeps until this long before an arrival is due, then
   spins, so arrivals leave on time without a core burnt on waiting. *)
let spin_s = 200e-6

type arrival = {
  due : float;  (** seconds after the start *)
  sg : int;  (** signature index; -1 for a scan request *)
  size : int;  (** index into [sizes] *)
  variant : int;
}

let schedule ~seed ~rps ~seconds ~nsig =
  let g = rng ~seed 5 in
  let w = Array.init nsig (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf)) in
  let total = sum w in
  let draw () =
    let u = ref (Splitmix.float g *. total) and i = ref 0 in
    while !i < nsig - 1 && !u >= w.(!i) do
      u := !u -. w.(!i);
      incr i
    done;
    !i
  in
  Array.init
    (max 1 (int_of_float (rps *. seconds)))
    (fun i ->
      let sg = if Splitmix.float g < scan_share then -1 else draw () in
      {
        due = float_of_int i /. rps;
        sg;
        size = Splitmix.int g ~bound:(Array.length sizes);
        variant = Splitmix.int g ~bound:variants;
      })

(* Counters read before and after the timed phase. *)
let counters srv =
  let m = Srv.metrics srv in
  let g c = Metrics.Counter.get c in
  [
    ("plan_hits", g m.Metrics.plan_hits);
    ("plan_misses", g m.Metrics.plan_misses);
    ("steals", g m.Metrics.steals);
    ("retries", g m.Metrics.retries);
    ("rejected", g m.Metrics.rejected);
    ("deadline_missed", g m.Metrics.deadline_missed);
    ("jit_used", g m.Metrics.jit_used);
    ("jit_fallback", g m.Metrics.jit_fallback);
    ("submitted", g m.Metrics.submitted);
    ("scan_submitted", g m.Metrics.scan_submitted);
  ]

let building jb =
  match JB.state jb with Plr_jit.Jit.Building -> true | _ -> false

let run (ctx : ctx) =
  let rps = if ctx.smoke then 200.0 else 1000.0 in
  let sigs = Array.of_list (List.map f32_sig Table1.all) in
  let nsig = Array.length sigs in
  let sched = schedule ~seed:ctx.seed ~rps ~seconds:ctx.seconds ~nsig in
  let g = rng ~seed:ctx.seed 6 in
  let input n = Array.init n (fun _ -> float_of_int (small_int g)) in
  let per_size f = Array.map (fun n -> Array.init variants (fun _ -> f n)) sizes in
  let xs = Array.map (fun _ -> per_size input) sigs in
  let scan_in =
    per_size (fun n ->
        let a = Array.init n (fun _ -> F32.round (Splitmix.float_in g ~lo:0.5 ~hi:1.0)) in
        (a, input n))
  in
  let t0 = now () in
  let config = { Serve.default_config with Serve.shards = 2 } in
  let srv = Srv.create ~config ~domains:1 () in
  let cc0 = Atomic.get Plr_jit.Jit.cc_invocations and tb = now () in
  (* Start every plan build (each compiles its JIT kernel on a domain of
     its own), then wait for all of them. *)
  let largest = sizes.(Array.length sizes - 1) in
  let entries = Array.map (fun s -> fst (Srv.plan_for ~n:largest srv s)) sigs in
  Array.iter
    (fun (e : Srv.entry) ->
      Option.iter
        (fun jb ->
          while building jb do
            Unix.sleepf 0.001
          done)
        e.Srv.jit)
    entries;
  let jit_build_s = now () -. tb in
  let cc_invocations = Atomic.get Plr_jit.Jit.cc_invocations - cc0 in
  (* The warm-up runs each kernel's first-use verification. *)
  if ctx.traced then Trace.set_enabled true;
  Array.iteri
    (fun i s -> Array.iter (fun x -> ignore (Srv.submit srv s x.(0))) xs.(i))
    sigs;
  Array.iter
    (fun v -> ignore (Srv.submit_scan srv (fst v.(0)) (snd v.(0))))
    scan_in;
  let setup_s = now () -. t0 in
  let verify_ms =
    if ctx.traced then begin
      Trace.set_enabled false;
      Layers.total_s (Layers.analyse (Trace.collect ())) "jit.verify" *. 1e3
    end
    else 0.0
  in
  if ctx.setup_only then begin
    Srv.shutdown srv;
    { setup_s; attempted = 0; failed = 0; metrics = [] }
  end
  else begin
    let with_scale y = (y, scale_of (Array.get y) (Array.length y)) in
    let expected =
      Array.mapi
        (fun i -> Array.map (Array.map (fun x -> with_scale (Sf.full sigs.(i) x))))
        xs
    in
    let expected_scan =
      Array.map (Array.map (fun (a, b) -> with_scale (Scf.serial a b))) scan_in
    in
    let count = Array.length sched in
    let lat = Array.make count 0.0 and late = Array.make count 0.0 in
    let svc = Array.make count 0.0 and fin = Array.make count 0.0 in
    let ok = Array.make count false in
    let before = counters srv in
    (* A short lead so both generators are running before the first
       arrival is due. *)
    let start = now () +. 0.05 in
    (* Deadlines are absolute [Unix.gettimeofday] instants. *)
    let wall_start = Unix.gettimeofday () +. (start -. now ()) in
    let generator k () =
      let i = ref k in
      while !i < count do
        let a = sched.(!i) in
        let due = start +. a.due in
        span "bench.harness.wait" (fun () ->
            let d = due -. now () -. spin_s in
            if d > 0.0 then Unix.sleepf d;
            while now () < due do
              Domain.cpu_relax ()
            done);
        let sent = now () in
        let deadline = wall_start +. a.due +. deadline_s ctx in
        let r =
          if a.sg < 0 then
            let sa, sb = scan_in.(a.size).(a.variant) in
            span "bench.serve.submit_scan" (fun () ->
                Srv.submit_scan ~deadline srv sa sb)
          else
            let x = xs.(a.sg).(a.size).(a.variant) in
            span "bench.serve.submit" (fun () ->
                Srv.submit ~deadline srv sigs.(a.sg) x)
        in
        let t = now () in
        late.(!i) <- sent -. due;
        svc.(!i) <- t -. sent;
        lat.(!i) <- t -. due;
        fin.(!i) <- t -. start;
        let exp, scale =
          if a.sg < 0 then expected_scan.(a.size).(a.variant)
          else expected.(a.sg).(a.size).(a.variant)
        in
        ok.(!i) <-
          span "bench.harness.check" (fun () ->
              match r with
              | Ok y ->
                  Array.length y = Array.length exp
                  && floats_close ~scale ~expected:exp y
              | Error _ -> false);
        i := !i + generators
      done;
      domain_id ()
    in
    let ids, ph =
      Layers.phase ctx (fun () ->
          List.init generators (fun k -> Domain.spawn (generator k))
          |> List.map Domain.join)
    in
    let after = counters srv in
    Srv.shutdown srv;
    let delta k = float_of_int (List.assoc k after - List.assoc k before) in
    let elems = Array.map (fun a -> float_of_int sizes.(a.size)) sched in
    let wall = Array.fold_left Float.max 0.0 fin in
    let good =
      Array.of_list (List.filter (fun i -> ok.(i)) (List.init count Fun.id))
    in
    let pick a = Array.map (fun i -> a.(i)) good in
    let ms a = Array.map (fun s -> s *. 1e3) a in
    let op = op_rate ~elems:(sum elems) ~op_s:(sum svc) in
    let end_to_end () =
      let in_slo =
        Array.fold_left (fun n l -> if l <= slo_s then n + 1 else n) 0 (pick lat)
      in
      [
        metric "throughput_gelem_s" "Gelem/s" (sum (pick elems) /. wall /. 1e9);
        metric "throughput_p10_gelem_s" "Gelem/s"
          (quantile (window_rates ~wall ~at:(pick fin) ~elems:(pick elems)) 0.1);
        metric "latency_p50_ms" "ms" (median (ms lat));
        metric "latency_p90_ms" "ms" (quantile (ms lat) 0.9);
        metric "goodput_rps" "req/s" (float_of_int in_slo /. wall);
      ]
    in
    let layers lt =
      let count_of name = float_of_int (Layers.count lt name) in
      let requests = delta "submitted" -. delta "scan_submitted" in
      let lookups = delta "plan_hits" +. delta "plan_misses" in
      Layers.common lt ph ~domains:ids ~elems:(sum elems) ~op
        ~copy:(copy_gelem_s (batch_n ctx))
      @ [
          metric "gen.late_p50_ms" "ms" (median (ms late));
          metric "gen.late_p99_ms" "ms" (quantile (ms late) 0.99);
          metric "factors.compile_count" "count" (count_of "factor.compile");
          metric "jit.cc_invocations" "count" (float_of_int cc_invocations);
          metric "jit.build_s" "s" jit_build_s;
          metric "jit.verify_ms" "ms" verify_ms;
          metric "jit.used_frac" "frac" (Layers.frac (delta "jit_used") requests);
          metric "scan.request.p50_ms" "ms" (Layers.p50_ms lt "scan.request");
          metric "guard.run.p50_ms" "ms" (Layers.p50_ms lt "guard.run");
          metric "guard.degrade" "count"
            (float_of_int (Layers.instants lt "guard.degrade"));
          metric "serve.plan_hit_rate" "frac" (Layers.frac (delta "plan_hits") lookups);
          metric "serve.request.self_mean_ms" "ms"
            (Layers.frac (Layers.self_s lt "serve.request") (count_of "serve.request")
            *. 1e3);
          metric "serve.queue.p95_ms" "ms" (Layers.p95_ms lt "serve.queue");
          metric "serve.exec.p50_ms" "ms" (Layers.p50_ms lt "serve.exec");
          metric "serve.steals" "count" (delta "steals");
          metric "serve.retries" "count" (delta "retries");
          metric "serve.rejected" "count" (delta "rejected");
          metric "serve.deadline_missed" "count" (delta "deadline_missed");
          metric "serve.jit_fallback" "count" (delta "jit_fallback");
          metric "serve.latency_p99_ms" "ms" (quantile (ms lat) 0.99);
          metric "serve.latency_p999_ms" "ms" (quantile (ms lat) 0.999);
        ]
    in
    let metrics =
      op
      :: (match ph.Layers.trace with None -> end_to_end () | Some lt -> layers lt)
    in
    { setup_s; attempted = count; failed = count - Array.length good; metrics }
  end
