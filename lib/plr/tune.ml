module Spec = Plr_gpusim.Spec
module Cost = Plr_gpusim.Cost

module Make (S : Plr_util.Scalar.S) = struct
  module E = Engine.Make (S)
  module P = E.P

  type candidate = {
    threads_per_block : int;
    x : int;
    cache_budget : int;
    predicted_time : float;
    predicted_throughput : float;
  }

  let thread_choices = [ 256; 512; 1024 ]
  let budget_choices = [ 256; 1024; 4096 ]

  let max_x_for signature =
    match S.kind with
    | Plr_util.Scalar.Floating -> 9
    | Plr_util.Scalar.Integer ->
        ignore signature;
        11

  let evaluate ?(opts = Opts.all_on) ~spec ~n signature ~threads_per_block ~x
      ~cache_budget =
    let opts = Opts.with_cache_budget opts cache_budget in
    let plan = P.compile_with ~opts ~spec ~n ~threads_per_block ~x signature in
    let w = E.predict_plan ~spec plan in
    let predicted_time = Cost.time spec w in
    ( plan,
      {
        threads_per_block;
        x;
        cache_budget;
        predicted_time;
        predicted_throughput = Cost.throughput ~n ~time_s:predicted_time;
      } )

  let sweep ?opts ~spec ~n signature =
    let xs = List.init (max_x_for signature) (fun i -> i + 1) in
    List.concat_map
      (fun threads_per_block ->
        List.concat_map
          (fun x ->
            List.map
              (fun cache_budget ->
                evaluate ?opts ~spec ~n signature ~threads_per_block ~x
                  ~cache_budget)
              budget_choices)
          xs)
      thread_choices

  let candidates ?opts ~spec ~n signature =
    sweep ?opts ~spec ~n signature
    |> List.map snd
    |> List.sort (fun a b -> Float.compare a.predicted_time b.predicted_time)

  let tune ?opts ~spec ~n signature =
    let ranked =
      sweep ?opts ~spec ~n signature
      |> List.sort (fun (_, a) (_, b) -> Float.compare a.predicted_time b.predicted_time)
    in
    match ranked with
    | (plan, _) :: _ -> plan
    | [] -> P.compile ?opts ~spec ~n signature

  let default_candidate ?(opts = Opts.all_on) ~spec ~n signature =
    let plan = P.compile ~opts ~spec ~n signature in
    snd
      (evaluate ~opts ~spec ~n signature
         ~threads_per_block:plan.P.threads_per_block ~x:plan.P.x
         ~cache_budget:opts.Opts.shared_cache_budget)
end
