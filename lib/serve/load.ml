type spec = { name : string; weight : float }

type result = {
  mode : string;
  duration : float;
  clients : int;
  requests : int;
  ok : int;
  rejected : int;
  deadline_missed : int;
  failed : int;
  degraded : int;
  plan_hits : int;
  plan_misses : int;
  throughput : float;
  offered_rps : float;
  slo_ms : float option;
  under_slo : int;
  goodput : float;
  shards : int;
  steals : int;
  session_migrations : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  mix : spec list;
  metrics_json : string;
}

let zipf_weights ~s n =
  Array.init n (fun i -> 1.0 /. Float.pow (float_of_int i +. 1.0) s)

(* Cumulative Zipf weights and a draw against them — shared by the
   closed loop's per-client picks and the open loop's pre-built
   schedule. *)
let zipf_cdf ~s n =
  let weights = zipf_weights ~s n in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cdf.(i) <- !acc)
    weights;
  (weights, cdf, !acc)

let pick_from_cdf cdf total g =
  let n = Array.length cdf in
  let r = Plr_util.Splitmix.float_in g ~lo:0.0 ~hi:total in
  let i = ref 0 in
  while !i < n - 1 && cdf.(!i) <= r do
    incr i
  done;
  !i

(* The open-loop arrival schedule: request [i] is due at [i/rps] seconds
   with a Zipf-drawn signature and a uniform size, all from one seeded
   generator — the whole schedule is a pure function of its arguments,
   so paired runs replay the identical workload. *)
let open_schedule ~seed ~rps ~seconds ~nsig ~nsizes ~zipf () =
  if not (rps > 0.0) then invalid_arg "Load.open_schedule: rps must be > 0";
  if nsig <= 0 then invalid_arg "Load.open_schedule: empty signature mix";
  if nsizes <= 0 then invalid_arg "Load.open_schedule: empty size list";
  let n = max 1 (int_of_float (Float.round (rps *. Float.max 0.0 seconds))) in
  let _, cdf, total = zipf_cdf ~s:zipf nsig in
  let g = Plr_util.Splitmix.create (seed lxor 0x05EED0) in
  Array.init n (fun i ->
      let si = pick_from_cdf cdf total g in
      let sz = Plr_util.Splitmix.int_in g ~lo:0 ~hi:(nsizes - 1) in
      (float_of_int i /. rps, si, sz))

let render fmt r =
  Format.fprintf fmt
    "@[<v>serve-bench (%s loop): %d clients, %.2f s@,\
     requests: %d (%.0f/s), ok %d, rejected %d, deadline-missed %d, failed %d@,\
     degraded: %d@,"
    r.mode r.clients r.duration r.requests r.throughput r.ok r.rejected
    r.deadline_missed r.failed r.degraded;
  (match r.slo_ms with
  | Some slo ->
      Format.fprintf fmt
        "offered: %.0f rps; goodput (ok within %.1f ms SLO): %d (%.0f/s)@,"
        r.offered_rps slo r.under_slo r.goodput
  | None -> ());
  if r.shards > 1 || r.steals > 0 || r.session_migrations > 0 then
    Format.fprintf fmt "shards: %d, steals %d, session migrations %d@,"
      r.shards r.steals r.session_migrations;
  Format.fprintf fmt
    "plan cache: %d hits / %d misses (%.1f%% hit rate)@,\
     latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, mean %.3f ms@,\
     mix:@,"
    r.plan_hits r.plan_misses
    (let total = r.plan_hits + r.plan_misses in
     if total = 0 then 0.0
     else 100.0 *. float_of_int r.plan_hits /. float_of_int total)
    r.p50_ms r.p95_ms r.p99_ms r.mean_ms;
  List.iter
    (fun m -> Format.fprintf fmt "  %-12s weight %.3f@," m.name m.weight)
    r.mix;
  Format.fprintf fmt "@]@."

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let to_json ?meta r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"plr-serve-bench-2\",\n";
  (match meta with
  | Some m -> Buffer.add_string b (Printf.sprintf "  \"meta\": %s,\n" m)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf
       "  \"mode\": %S,\n  \"duration_s\": %s,\n  \"clients\": %d,\n\
       \  \"requests\": %d,\n\
       \  \"ok\": %d,\n  \"rejected\": %d,\n  \"deadline_missed\": %d,\n\
       \  \"failed\": %d,\n  \"degraded\": %d,\n  \"plan_hits\": %d,\n\
       \  \"plan_misses\": %d,\n  \"throughput_rps\": %s,\n\
       \  \"offered_rps\": %s,\n  \"slo_ms\": %s,\n  \"under_slo\": %d,\n\
       \  \"goodput_rps\": %s,\n  \"shards\": %d,\n  \"steals\": %d,\n\
       \  \"session_migrations\": %d,\n\
       \  \"p50_ms\": %s,\n  \"p95_ms\": %s,\n  \"p99_ms\": %s,\n\
       \  \"mean_ms\": %s,\n"
       r.mode (json_float r.duration) r.clients r.requests r.ok r.rejected
       r.deadline_missed r.failed r.degraded r.plan_hits r.plan_misses
       (json_float r.throughput) (json_float r.offered_rps)
       (match r.slo_ms with Some s -> json_float s | None -> "null")
       r.under_slo (json_float r.goodput) r.shards r.steals
       r.session_migrations (json_float r.p50_ms) (json_float r.p95_ms)
       (json_float r.p99_ms) (json_float r.mean_ms));
  Buffer.add_string b "  \"mix\": [";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{ \"name\": %S, \"weight\": %s }" m.name
           (json_float m.weight)))
    r.mix;
  Buffer.add_string b "],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"metrics\": %s\n}\n" r.metrics_json);
  Buffer.contents b

let write_json ~path ?meta r =
  Plr_util.Fileio.atomic_write_string ~path (to_json ?meta r)

module Make (S : Plr_util.Scalar.S) = struct
  module Srv = Serve.Make (S)

  (* Per-client tallies, merged after the join — the load loop itself
     touches no shared state besides the server. *)
  type tally = {
    mutable t_requests : int;
    mutable t_ok : int;
    mutable t_rejected : int;
    mutable t_deadline : int;
    mutable t_failed : int;
  }

  let fresh_tally () =
    { t_requests = 0; t_ok = 0; t_rejected = 0; t_deadline = 0; t_failed = 0 }

  (* Pre-generated inputs, one per (signature, size): the loops measure
     the server, not the RNG. *)
  let pregen_inputs ~seed ~sizes mix_a =
    Array.mapi
      (fun i _ ->
        Array.mapi
          (fun j n ->
            let g = Plr_util.Splitmix.create ((seed * 7919) + (i * 131) + j) in
            Array.init n (fun _ ->
                S.of_int (Plr_util.Splitmix.int_in g ~lo:(-9) ~hi:9)))
          sizes)
      mix_a

  let finish ~mode ~duration ~clients ~offered_rps ~slo_ms ~under_slo
      ~latency_h ~server ~weights ~mix_a tallies =
    let sum f = List.fold_left (fun a t -> a + f t) 0 tallies in
    let requests = sum (fun t -> t.t_requests) in
    let ok = sum (fun t -> t.t_ok) in
    let m = Srv.metrics server in
    let h = match latency_h with Some h -> h | None -> m.Metrics.total in
    let throughput =
      if duration > 0.0 then float_of_int ok /. duration else 0.0
    in
    let under_slo = match under_slo with Some u -> u | None -> ok in
    {
      mode;
      duration;
      clients;
      requests;
      ok;
      rejected = sum (fun t -> t.t_rejected);
      deadline_missed = sum (fun t -> t.t_deadline);
      failed = sum (fun t -> t.t_failed);
      degraded = Metrics.Counter.get m.Metrics.degraded;
      plan_hits = Metrics.Counter.get m.Metrics.plan_hits;
      plan_misses = Metrics.Counter.get m.Metrics.plan_misses;
      throughput;
      offered_rps;
      slo_ms;
      under_slo;
      goodput =
        (if duration > 0.0 then float_of_int under_slo /. duration else 0.0);
      shards = Srv.shard_count server;
      steals = Metrics.Counter.get m.Metrics.steals;
      session_migrations = Metrics.Counter.get m.Metrics.session_migrations;
      p50_ms = Metrics.Histogram.percentile h 0.50 *. 1e3;
      p95_ms = Metrics.Histogram.percentile h 0.95 *. 1e3;
      p99_ms = Metrics.Histogram.percentile h 0.99 *. 1e3;
      mean_ms = Metrics.Histogram.mean h *. 1e3;
      mix =
        List.mapi
          (fun i (name, _) -> { name; weight = weights.(i) })
          (Array.to_list mix_a);
      metrics_json = Srv.snapshot_json server;
    }

  let run ?(clients = 4) ?(seconds = 2.0) ?(zipf = 1.1)
      ?(sizes = [| 512; 1024; 4096; 32768 |]) ?(deadline_ms = 250.0)
      ?(seed = 7) ~server mix =
    if mix = [] then invalid_arg "Load.run: empty signature mix";
    if Array.length sizes = 0 then invalid_arg "Load.run: empty size list";
    let clients = max 1 clients in
    let mix_a = Array.of_list mix in
    let nsig = Array.length mix_a in
    let weights, cdf, total_w = zipf_cdf ~s:zipf nsig in
    let inputs = pregen_inputs ~seed ~sizes mix_a in
    let t_start = Unix.gettimeofday () in
    let stop_at = t_start +. Float.max 0.05 seconds in
    let client idx =
      let g = Plr_util.Splitmix.create ((seed * 31) + idx) in
      let tally = fresh_tally () in
      while Unix.gettimeofday () < stop_at do
        let si = pick_from_cdf cdf total_w g in
        let sz = Plr_util.Splitmix.int_in g ~lo:0 ~hi:(Array.length sizes - 1) in
        let _, signature = mix_a.(si) in
        let deadline = Unix.gettimeofday () +. (deadline_ms /. 1e3) in
        tally.t_requests <- tally.t_requests + 1;
        (match Srv.submit ~deadline server signature inputs.(si).(sz) with
        | Ok _ -> tally.t_ok <- tally.t_ok + 1
        | Error Serve.Overloaded -> tally.t_rejected <- tally.t_rejected + 1
        | Error Serve.Deadline_exceeded ->
            tally.t_deadline <- tally.t_deadline + 1
        | Error (Serve.Failed _) -> tally.t_failed <- tally.t_failed + 1);
        (* A rejected closed-loop client backs off briefly instead of
           hammering the admission gate. *)
        if tally.t_rejected > 0 && tally.t_requests land 15 = 0 then
          Unix.sleepf 1e-4
      done;
      tally
    in
    let others =
      Array.init (clients - 1) (fun i -> Domain.spawn (fun () -> client (i + 1)))
    in
    let mine = client 0 in
    let tallies = mine :: List.map Domain.join (Array.to_list others) in
    let duration = Unix.gettimeofday () -. t_start in
    finish ~mode:"closed" ~duration ~clients ~offered_rps:0.0 ~slo_ms:None
      ~under_slo:None ~latency_h:None ~server ~weights ~mix_a tallies

  let run_open ?(clients = 4) ?(rps = 500.0) ?(seconds = 2.0) ?(zipf = 1.1)
      ?(sizes = [| 512; 1024; 4096; 32768 |]) ?(deadline_ms = 250.0)
      ?(slo_ms = 50.0) ?(seed = 7) ~server mix =
    if mix = [] then invalid_arg "Load.run_open: empty signature mix";
    if Array.length sizes = 0 then invalid_arg "Load.run_open: empty size list";
    if not (rps > 0.0) then invalid_arg "Load.run_open: rps must be > 0";
    let clients = max 1 clients in
    let mix_a = Array.of_list mix in
    let nsig = Array.length mix_a in
    let weights, _, _ = zipf_cdf ~s:zipf nsig in
    let inputs = pregen_inputs ~seed ~sizes mix_a in
    let schedule =
      open_schedule ~seed ~rps ~seconds ~nsig
        ~nsizes:(Array.length sizes) ~zipf ()
    in
    let n = Array.length schedule in
    (* Open loop: arrivals happen at their scheduled instant whether or
       not earlier requests finished, and every latency is measured from
       the *intended* arrival — a slow server cannot slow the arrival
       process down, so queueing delay shows up in the percentiles
       instead of being coordinated away (the coordinated-omission fix).
       Workers are just transport: each claims the next arrival index,
       sleeps until its instant, and submits.  A late worker never skips
       a request; it submits immediately and the accumulated lateness is
       charged to the request, as a real queue would. *)
    let next = Atomic.make 0 in
    let under_slo = Atomic.make 0 in
    let latency_h = Metrics.Histogram.create () in
    let slo_s = slo_ms /. 1e3 in
    let t_start = Unix.gettimeofday () +. 0.005 in
    let worker () =
      let tally = fresh_tally () in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let off, si, sz = schedule.(i) in
          let intended = t_start +. off in
          let d = intended -. Unix.gettimeofday () in
          if d > 0.0 then Unix.sleepf d;
          let _, signature = mix_a.(si) in
          let deadline = intended +. (deadline_ms /. 1e3) in
          tally.t_requests <- tally.t_requests + 1;
          let r = Srv.submit ~deadline server signature inputs.(si).(sz) in
          let lat = Unix.gettimeofday () -. intended in
          Metrics.Histogram.observe latency_h lat;
          (match r with
          | Ok _ ->
              tally.t_ok <- tally.t_ok + 1;
              if lat <= slo_s then Atomic.incr under_slo
          | Error Serve.Overloaded -> tally.t_rejected <- tally.t_rejected + 1
          | Error Serve.Deadline_exceeded ->
              tally.t_deadline <- tally.t_deadline + 1
          | Error (Serve.Failed _) -> tally.t_failed <- tally.t_failed + 1);
          loop ()
        end
      in
      loop ();
      tally
    in
    let others =
      Array.init (clients - 1) (fun _ -> Domain.spawn worker)
    in
    let mine = worker () in
    let tallies = mine :: List.map Domain.join (Array.to_list others) in
    let duration =
      Float.max (Unix.gettimeofday () -. t_start) (float_of_int n /. rps)
    in
    finish ~mode:"open" ~duration ~clients ~offered_rps:rps
      ~slo_ms:(Some slo_ms) ~under_slo:(Some (Atomic.get under_slo))
      ~latency_h:(Some latency_h) ~server ~weights ~mix_a tallies
end
