(* The batch loop shared by const-batch and scan-batch: one caller runs
   rounds of operations back to back, each call timed on its own, each
   output checked outside the timer, and a full major collection between
   rounds (also outside the timer) so that one round's garbage is not
   collected on the next round's clock. *)

open Bench

type op = {
  tag : string;
  elems : int;
  run : unit -> unit;  (** the timed call; keeps its output for [check] *)
  check : unit -> bool;  (** compares and releases the kept output *)
}

type stats = {
  round_gelem_s : float array;  (** per round: elements ÷ summed call time *)
  lat_ms : float array;  (** per round: one call of every operation *)
  per_tag_s : (string * float array) list;  (** call times by operation *)
  settle_ms : float array;
  rounds : int;
  attempted : int;
  failed : int;
  elems : float;
  call_s : float;
}

let run ~seconds ops =
  let rates = samples () and lat = samples () and settle = samples () in
  let per_tag = List.map (fun op -> (op.tag, samples ())) ops in
  let attempted = ref 0 and failed = ref 0 in
  let elems = ref 0.0 and call_s = ref 0.0 in
  let stop = now () +. seconds in
  while rates.len = 0 || now () < stop do
    let round_s = ref 0.0 and round_elems = ref 0 in
    List.iter
      (fun op ->
        let t0 = now () in
        op.run ();
        let dt = now () -. t0 in
        push (List.assoc op.tag per_tag) dt;
        round_s := !round_s +. dt;
        round_elems := !round_elems + op.elems;
        incr attempted;
        if not (span "bench.harness.check" op.check) then incr failed)
      ops;
    push rates (float_of_int !round_elems /. !round_s /. 1e9);
    push lat (!round_s *. 1e3);
    elems := !elems +. float_of_int !round_elems;
    call_s := !call_s +. !round_s;
    let t0 = now () in
    span "bench.harness.settle" Gc.full_major;
    push settle ((now () -. t0) *. 1e3)
  done;
  {
    round_gelem_s = to_array rates;
    lat_ms = to_array lat;
    per_tag_s = List.map (fun (tag, s) -> (tag, to_array s)) per_tag;
    settle_ms = to_array settle;
    rounds = rates.len;
    attempted = !attempted;
    failed = !failed;
    elems = !elems;
    call_s = !call_s;
  }

let op st = op_rate ~elems:st.elems ~op_s:st.call_s

let end_to_end st =
  [
    metric "throughput_gelem_s" "Gelem/s" (median st.round_gelem_s);
    metric "throughput_p10_gelem_s" "Gelem/s" (quantile st.round_gelem_s 0.1);
    metric "latency_p50_ms" "ms" (median st.lat_ms);
    metric "latency_p90_ms" "ms" (quantile st.lat_ms 0.9);
    metric "goodput_rps" "req/s"
      (float_of_int (st.attempted - st.failed) /. st.call_s);
  ]

let ns_per_elem st ~tag ~n = median (List.assoc tag st.per_tag_s) *. 1e9 /. float_of_int n

(* Median of a few calls, as ns per element: the single-thread reference
   evaluators the traced run measures after its timed phase.  Garbage is
   collected before each call, as between rounds. *)
let probe_ns ~n ?(reps = 5) f =
  f ();
  let times =
    Array.init reps (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        f ();
        now () -. t0)
  in
  median times *. 1e9 /. float_of_int n

(* The per-layer metrics both batch workloads report; [n] is the length
   of one operation's input. *)
let layer_metrics (lt : Layers.t) ph st ~n =
  Layers.common lt ph ~domains:[ domain_id () ] ~elems:st.elems ~op:(op st)
    ~copy:(copy_gelem_s n)
  @ [
    metric "gc.settle_ms_per_round" "ms" (median st.settle_ms);
    metric "pool.jobs_per_round" "count"
      (float_of_int (Layers.count lt "pool.job") /. float_of_int st.rounds);
    metric "pool.task.self_frac" "frac" (Layers.self_frac lt "pool.task");
  ]

(* What a batch run reports: [op.gelem_s] always, then the end-to-end
   metrics when untraced, or the per-layer ones, with the workload's
   [extra] ones, when traced. *)
let metrics st (ph : Layers.phase) ~n ~extra =
  op st
  :: (match ph.Layers.trace with
     | None -> end_to_end st
     | Some lt -> layer_metrics lt ph st ~n @ extra lt)
