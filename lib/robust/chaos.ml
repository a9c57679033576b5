module Faults = Plr_gpusim.Faults

type target = Gpusim | Multicore | Jit | Scan

type outcome =
  | Exact
  | Degraded of string
  | Detected of string
  | Silent of string

type summary = {
  trials : int;
  exact : int;
  degraded : int;
  detected : int;
  silent : int;
  injected : int;
}

let benign_kinds = [ Faults.Reorder; Faults.Delay_flag ]

let target_to_string = function
  | Gpusim -> "gpusim"
  | Multicore -> "multicore"
  | Jit -> "jit"
  | Scan -> "scan"

let outcome_to_string = function
  | Exact -> "exact"
  | Degraded why -> "degraded (" ^ why ^ ")"
  | Detected why -> "detected (" ^ why ^ ")"
  | Silent why -> "SILENT DIVERGENCE (" ^ why ^ ")"

module Make (S : Plr_util.Scalar.S) = struct
  module G = Guard.Make (S)
  module Serial = Plr_serial.Serial.Make (S)
  module Sc = Plr_scan.Scan.Make (S)

  type trial = {
    seed : int;
    target : target;
    plan : Faults.plan;
    outcome : outcome;
  }

  (* Small chunks so a few hundred elements span many chunks and several
     look-back waves. *)
  let gpusim_threads = 4
  let gpusim_x = 2
  let gpusim_m = gpusim_threads * gpusim_x
  let gpusim_lookback = 4
  let multicore_chunk = 16

  let spec = Plr_gpusim.Spec.titan_x

  (* Scan trials have no signature: the coefficient streams themselves
     are drawn from the seed, with run-length structure (identity runs,
     reset runs, dense stretches) so the trials also cross the segment
     shapes the sparse path classifies. *)
  let scan_chunk = 16

  let agrees ~tol expected out =
    Array.length out = Array.length expected
    && (let ok = ref true in
        Array.iteri
          (fun i v -> if not (S.approx_equal ~tol v out.(i)) then ok := false)
          expected;
        !ok)

  let scan_inputs gen n =
    let a = Array.make n S.zero and b = Array.make n S.zero in
    let i = ref 0 in
    while !i < n do
      let run_len = min (n - !i) (1 + Plr_util.Splitmix.int gen ~bound:24) in
      let kind = Plr_util.Splitmix.int gen ~bound:4 in
      for j = !i to !i + run_len - 1 do
        match kind with
        | 0 ->
            a.(j) <- S.one;
            b.(j) <- S.zero
        | 1 ->
            a.(j) <- S.zero;
            b.(j) <- S.of_int (Plr_util.Splitmix.int_in gen ~lo:(-9) ~hi:9)
        | _ ->
            a.(j) <- S.of_int (Plr_util.Splitmix.int_in gen ~lo:(-2) ~hi:2);
            b.(j) <- S.of_int (Plr_util.Splitmix.int_in gen ~lo:(-9) ~hi:9)
      done;
      i := !i + run_len
    done;
    (a, b)

  (* The scan subsystem carries its own verify-and-fall-back ladder
     (carry verification inside the engine, serial fallback outside), so
     scan trials classify that ladder directly instead of going through
     {!Guard}: a loud failure that the serial fallback recovers is
     [Degraded]; an accepted output is re-checked independently against
     the serial reference and any mismatch is [Silent]. *)
  let run_scan_trial ~n ?kinds ~max_events ~tol ?domains ~seed () =
    let gen = Plr_util.Splitmix.create seed in
    let a, b = scan_inputs gen n in
    let chunks = (n + scan_chunk - 1) / scan_chunk in
    let plan =
      Faults.random ~seed:((seed * 31) + 7) ~chunks ~lanes:2 ?kinds
        ~max_events ()
    in
    let expected = Sc.serial a b in
    let matches = agrees ~tol expected in
    let accepted, why =
      match Sc.run ~faults:plan ?domains ~chunk_size:scan_chunk a b with
      | y ->
          if matches y then (y, None)
          else
            ( expected,
              Some "scan verify: faulted output diverged from serial" )
      | exception Plr_scan.Scan.Fault_detected msg -> (expected, Some msg)
    in
    let outcome =
      if not (matches accepted) then
        Silent "scan ladder accepted an output that differs from serial"
      else match why with Some w -> Degraded w | None -> Exact
    in
    { seed; target = Scan; plan; outcome }

  let run_trial ?(n = 384) ?kinds ?(max_events = 3) ?(tol = 1e-3) ?domains
      ~seed ~target s =
    if target = Scan then run_scan_trial ~n ?kinds ~max_events ~tol ?domains ~seed ()
    else
    let k = max 1 (Signature.order s) in
    let gen = Plr_util.Splitmix.create seed in
    let input =
      Array.init n (fun _ -> S.of_int (Plr_util.Splitmix.int_in gen ~lo:(-9) ~hi:9))
    in
    let chunks =
      match target with
      | Gpusim -> (n + gpusim_m - 1) / gpusim_m
      | Multicore | Jit -> (n + multicore_chunk - 1) / multicore_chunk
      | Scan -> assert false (* dispatched to run_scan_trial above *)
    in
    let plan =
      Faults.random ~seed:((seed * 31) + 7) ~chunks ~lanes:k ?kinds ~max_events ()
    in
    let runner =
      match target with
      | Gpusim ->
          G.gpusim_runner ~faults:plan ~threads_per_block:gpusim_threads
            ~x:gpusim_x ~lookback_window:gpusim_lookback ~spec ()
      | Multicore ->
          G.multicore_runner ~faults:plan ?domains ~chunk_size:multicore_chunk ()
      | Jit -> (
          (* The native kernel itself is never faulted; what chaos must
             prove is that the JIT-first dispatch degrades through the
             faulted OCaml path without losing the guard's guarantees.
             Odd seeds bypass the JIT deterministically so every campaign
             exercises the faulted fallback too; any real-world
             unavailability (no cc, build failed) takes the same route. *)
          let fallback =
            G.multicore_runner ~faults:plan ?domains
              ~chunk_size:multicore_chunk ()
          in
          let jit =
            if seed land 1 = 1 then None
            else
              let fplan =
                G.JB.F.of_feedback ~feedback:s.Signature.feedback ~m:64 ()
              in
              G.JB.prepare ~mode:`Sync ~fplan s
          in
          match jit with
          | Some jb -> G.jit_runner ~jit:jb ~fallback
          | None -> fallback)
      | Scan -> assert false (* dispatched to run_scan_trial above *)
    in
    let expected = Serial.full s input in
    let o = G.run ~tol ~check:Guard.Full runner s input in
    let matches = agrees ~tol expected in
    let parallel_violation () =
      List.fold_left
        (fun acc (a : Guard.attempt) ->
          match (acc, a.Guard.violation) with
          | None, Some v -> Some (Guard.violation_to_string v)
          | acc, _ -> acc)
        None o.G.attempts
      |> Option.value ~default:"unreported"
    in
    let outcome =
      if o.G.ok then
        if matches o.G.output then
          if o.G.degraded then Degraded (parallel_violation ()) else Exact
        else Silent "guard accepted an output that differs from serial"
      else Detected (parallel_violation ())
    in
    { seed; target; plan; outcome }

  let campaign ?(trials = 100) ?n ?kinds ?max_events ?tol ?domains ~seed
      ~target s =
    let results =
      List.init trials (fun i ->
          run_trial ?n ?kinds ?max_events ?tol ?domains ~seed:(seed + i)
            ~target s)
    in
    let count f = List.length (List.filter f results) in
    let summary =
      {
        trials;
        exact = count (fun t -> t.outcome = Exact);
        degraded =
          count (fun t -> match t.outcome with Degraded _ -> true | _ -> false);
        detected =
          count (fun t -> match t.outcome with Detected _ -> true | _ -> false);
        silent =
          count (fun t -> match t.outcome with Silent _ -> true | _ -> false);
        injected = count (fun t -> not (Faults.is_none t.plan));
      }
    in
    (summary, results)

  let pp_summary ppf s =
    Format.fprintf ppf
      "%d trials (%d with injected faults): %d exact, %d degraded-recovered, \
       %d detected, %d silent"
      s.trials s.injected s.exact s.degraded s.detected s.silent
end
