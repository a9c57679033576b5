(* Per-layer accounting of a traced timed phase.  The in-library spans
   (mc.lookback, jit.run, serve.queue, session.checkpoint, ...) and the
   benchmark's own [bench.*] spans are folded into self times with
   [Plr_trace.Report.rows]; each row is charged to the repository layer
   that owns the code it timed. *)

open Bench
module Report = Plr_trace.Report

let system_layers =
  [ "factors"; "exec"; "multicore"; "jit"; "scan"; "robust"; "serve"; "session" ]

(* [bench.<layer>.<entry>] wraps a call into <layer>, so its self time is
   time spent inside that layer's entry point outside the layer's own
   spans; [bench.harness.*] is the benchmark itself. *)
let layer_of (r : Report.row) =
  match r.Report.cat with
  | Trace.App -> (
      match String.split_on_char '.' r.Report.name with
      | "bench" :: layer :: _ :: _ when List.mem layer system_layers -> layer
      | _ -> "harness")
  | Trace.Factors -> "factors"
  | Trace.Pool -> "exec"
  | Trace.Multicore -> "multicore"
  | Trace.Guard -> "robust"
  | Trace.Jit -> "jit"
  | Trace.Scan -> if r.Report.name = "scan.request" then "serve" else "scan"
  | Trace.Serve ->
      if has_prefix "session." r.Report.name then "session" else "serve"
  | Trace.Engine -> "engine"

type t = {
  events : Trace.event list;
  rows : Report.row list;
  busy_s : float;  (** self time of every non-harness span, all domains *)
  dropped : int;
}

let analyse events =
  let rows = Report.rows events in
  let busy_s =
    List.fold_left
      (fun acc r -> if layer_of r = "harness" then acc else acc +. r.Report.self_s)
      0.0 rows
  in
  { events; rows; busy_s; dropped = Trace.dropped () }

let row t name = List.find_opt (fun r -> r.Report.name = name) t.rows
let count t name = match row t name with Some r -> r.Report.count | None -> 0
let self_s t name = match row t name with Some r -> r.Report.self_s | None -> 0.0
let total_s t name = match row t name with Some r -> r.Report.total_s | None -> 0.0

let p50_ms t name =
  match row t name with Some r -> r.Report.p50_s *. 1e3 | None -> 0.0

let p95_ms t name =
  match row t name with Some r -> r.Report.p95_s *. 1e3 | None -> 0.0

let frac num den = if den > 0.0 then num /. den else 0.0
let self_frac t name = frac (self_s t name) t.busy_s

let instants t name =
  List.fold_left
    (fun acc (e : Trace.event) ->
      if e.Trace.kind = Trace.Instant && e.Trace.name = name then acc + 1
      else acc)
    0 t.events

(* Time covered by outermost spans on the given domains.  The benchmark
   wraps everything its own domains do in a span, so this over
   [domains × wall] is the share of the timed wall the trace accounts
   for. *)
let covered_s t ~domains =
  let depth = Hashtbl.create 8 and start = Hashtbl.create 8 in
  let get d = Option.value ~default:0 (Hashtbl.find_opt depth d) in
  List.fold_left
    (fun acc (e : Trace.event) ->
      let d = e.Trace.domain in
      if not (List.mem d domains) then acc
      else
        match e.Trace.kind with
        | Trace.Begin ->
            if get d = 0 then Hashtbl.replace start d e.Trace.ts;
            Hashtbl.replace depth d (get d + 1);
            acc
        | Trace.End when get d > 0 ->
            Hashtbl.replace depth d (get d - 1);
            if get d = 0 then acc +. (e.Trace.ts -. Hashtbl.find start d) else acc
        | _ -> acc)
    0.0 t.events

type phase = {
  wall : float;
  alloc_bytes : float;
  majors : int;
  trace : t option;  (** [Some] exactly when the run is traced *)
}

(* Run the timed phase [f], recording spans only inside it when the run
   is traced, and the GC counters either way. *)
let phase (ctx : ctx) f =
  if ctx.traced then begin
    Trace.reset ();
    Trace.set_enabled true
  end;
  let a0 = allocated_bytes () and g0 = major_collections () and t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let alloc_bytes = allocated_bytes () -. a0 in
  let majors = major_collections () - g0 in
  let trace =
    if ctx.traced then begin
      Trace.set_enabled false;
      Some (analyse (Trace.collect ()))
    end
    else None
  in
  (r, { wall; alloc_bytes; majors; trace })

(* The per-layer metrics every workload reports.  [elems] is the elements
   its operations processed, [op] their [op.gelem_s] metric, [copy] the
   roofline for the same element size, and [domains] the domains the
   benchmark itself drove. *)
let common t (ph : phase) ~domains ~elems ~op ~copy =
  let wall = ph.wall in
  let by_layer l =
    List.fold_left
      (fun acc r -> if layer_of r = l then acc +. r.Report.self_s else acc)
      0.0 t.rows
  in
  [
    metric "copy.gelem_s" "Gelem/s" copy;
    metric "frac_of_copy" "frac" (frac op.value copy);
    metric "gc.alloc_bytes_per_elem" "B/elem" (frac ph.alloc_bytes elems);
    metric "gc.majors_per_s" "1/s" (frac (float_of_int ph.majors) wall);
    metric "trace.dropped" "count" (float_of_int t.dropped);
    metric "trace.coverage_frac" "frac"
      (frac (covered_s t ~domains) (wall *. float_of_int (List.length domains)));
  ]
  @ List.map
      (fun l -> metric ("self_frac." ^ l) "frac" (frac (by_layer l) t.busy_s))
      system_layers
