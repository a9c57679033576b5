(* [plrbench compare A.json B.json]: for each workload and end-to-end
   metric, the two medians over the untraced runs, the change, and a
   verdict against the metric's bound from BENCHMARK.json.  A metric whose
   runs spread wider than its bound on either side is unresolved, unless
   every run of B reads better than every run of A. *)

open Bench

(* A side is one results file, or several separated by commas, so that
   the runs of two sides can be taken alternately and a drift of the
   machine's speed hits both alike. *)
let load paths =
  List.concat_map
    (fun path ->
      List.map Runner.run_of_json
        (Plr_trace.Json.to_list
           (Option.value ~default:Plr_trace.Json.Null
              (Plr_trace.Json.member "runs" (Runner.parse_file path)))))
    (String.split_on_char ',' paths)

let values runs ~workload ~name =
  Array.of_list
    (List.filter_map
       (fun (r : Runner.run) ->
         if r.Runner.workload = workload && not r.Runner.traced then
           Runner.value name r.Runner.metrics
         else None)
       runs)

let spread a =
  let lo = Array.fold_left Float.min Float.infinity a
  and hi = Array.fold_left Float.max Float.neg_infinity a in
  (hi -. lo) /. median a

type verdict = Better | Within | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Within -> "within"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge (d : Spec.mdef) a b =
  let better x y = if d.Spec.higher_better then x > y else x < y in
  let delta = (median b -. median a) /. median a in
  let worse_by = if d.Spec.higher_better then -.delta else delta in
  let all_better =
    Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b
  in
  if spread a > d.Spec.bound || spread b > d.Spec.bound then
    if all_better then Better else Unresolved
  else if worse_by > d.Spec.bound then Worse
  else if worse_by < -.d.Spec.bound then Better
  else Within

let failed_share runs ~workload =
  let att, fail =
    List.fold_left
      (fun (a, f) (r : Runner.run) ->
        if r.Runner.workload = workload then
          (a + r.Runner.attempted, f + r.Runner.failed)
        else (a, f))
      (0, 0) runs
  in
  if att = 0 then 0.0 else float_of_int fail /. float_of_int att

(* Prints the table and answers whether no pairing got worse. *)
let run (spec : Spec.t) ~a ~b =
  let ra = load a and rb = load b in
  let pct x = 100.0 *. x in
  Printf.printf "%-15s %-24s %12s %12s %8s  %s\n" "workload" "metric" "A" "B"
    "delta" "verdict";
  let worse = ref false in
  List.iter
    (fun workload ->
      List.iter
        (fun (d : Spec.mdef) ->
          let name = d.Spec.name in
          let va = values ra ~workload ~name and vb = values rb ~workload ~name in
          if Array.length va = 0 || Array.length vb = 0 then
            Printf.printf "%-15s %-24s %12s %12s %8s  missing\n" workload name
              "-" "-" "-"
          else begin
            let v = judge d va vb in
            if v = Worse then worse := true;
            Printf.printf
              "%-15s %-24s %12.6g %12.6g %+7.2f%%  %s (spread %.1f%% / \
               %.1f%%, bound %.0f%%)\n"
              workload name (median va) (median vb)
              (pct ((median vb -. median va) /. median va))
              (verdict_name v) (pct (spread va)) (pct (spread vb))
              (pct d.Spec.bound)
          end)
        spec.Spec.end_to_end;
      Printf.printf "%-15s %-24s %11.4f%% %11.4f%%\n" workload
        "ops_failed share"
        (pct (failed_share ra ~workload))
        (pct (failed_share rb ~workload)))
    spec.Spec.workloads;
  not !worse
