module Faults = Plr_gpusim.Faults
module Trace = Plr_trace.Trace

type stage = Parallel | Sequential_fallback | Float64_serial

type violation =
  | Non_finite of { index : int }
  | Divergence of { index : int; got : float; expected : float; tol : float }
  | Engine_error of string
  | Predicted_overflow of { index : int }

type attempt = { stage : stage; violation : violation option }
type check = No_reference | Prefix of int | Full

let stage_code = function
  | Parallel -> 0
  | Sequential_fallback -> 1
  | Float64_serial -> 2

let violation_code = function
  | Non_finite _ -> 0
  | Divergence _ -> 1
  | Engine_error _ -> 2
  | Predicted_overflow _ -> 3

let stage_to_string = function
  | Parallel -> "parallel"
  | Sequential_fallback -> "sequential-fallback"
  | Float64_serial -> "float64-serial"

let violation_to_string = function
  | Non_finite { index } -> Printf.sprintf "non-finite value at index %d" index
  | Divergence { index; got; expected; tol } ->
      Printf.sprintf "divergence at index %d: got %g, expected %g (tol %g)"
        index got expected tol
  | Engine_error msg -> Printf.sprintf "engine error: %s" msg
  | Predicted_overflow { index } ->
      Printf.sprintf "stability analysis predicts factor overflow at index %d"
        index

(* The guard's float loops, typed [float array] so that no element is
   boxed: the first non-finite index, and the first index from [i] on
   where the output leaves the reference by more than [tol] (or is NaN
   there). *)
let first_non_finite (a : float array) =
  let n = Array.length a and i = ref 0 in
  while !i < n && Float.is_finite (Array.unsafe_get a !i) do
    incr i
  done;
  if !i < n then Some !i else None

let rec past_tol ~tol (r : float array) (out : float array) i =
  if i = Array.length r
     || not (Float.abs (Array.unsafe_get r i -. out.(i)) <= tol)
  then i
  else past_tol ~tol r out (i + 1)

module Make (S : Plr_util.Scalar.S) = struct
  module Engine = Plr_core.Engine.Make (S)
  module Multicore = Plr_multicore.Multicore.Make (S)
  module Serial = Plr_serial.Serial.Make (S)
  module Serial64 = Plr_serial.Serial.Make (Plr_util.Scalar.F64)
  module JB = Plr_jit.Backend.Make (S)

  type runner = S.t Signature.t -> S.t array -> S.t array

  type outcome = {
    output : S.t array;
    stability : Stability.report;
    attempts : attempt list;
    degraded : bool;
    ok : bool;
  }

  let floating = S.kind = Plr_util.Scalar.Floating

  let scan_non_finite (out : S.t array) =
    match S.rep with
    | Plr_util.Scalar.Float_rep _ -> first_non_finite out
    | _ ->
        if not floating then None
        else begin
          let bad = ref None in
          (try
             Array.iteri
               (fun i v ->
                 if not (Float.is_finite (S.to_float v)) then begin
                   bad := Some i;
                   raise Exit
                 end)
               out
           with Exit -> ());
          !bad
        end

  let run ?(tol = 1e-3) ?(check = Prefix 4096) ?probe ?stability runner
      (s : S.t Signature.t) (x : S.t array) =
    let n = Array.length x in
    let stability =
      (* The serving layer caches the report per signature and passes it
         back in, so repeated requests skip the O(k²) + O(probe·k)
         analysis. *)
      match stability with
      | Some r -> r
      | None -> Stability.analyze ?probe (Signature.map S.to_float s)
    in
    (* Serial reference prefix, shared by every attempt's forward-error
       check; computed at most once and only if an attempt gets that far.
       Floats take it from the serial kernel, written straight from [x]
       into a [p]-element array: bitwise [Serial.full]'s prefix. *)
    let p =
      match check with
      | No_reference -> 0
      | Prefix p -> min (max 0 p) n
      | Full -> n
    in
    let divergence i got expected =
      Some (Divergence { index = i; got; expected; tol })
    in
    let compare_reference : S.t array -> violation option =
      match (check, S.rep) with
      | No_reference, _ -> fun _ -> None
      | _, Plr_util.Scalar.Float_rep _ ->
          let reference =
            lazy
              (let r = Array.make p 0.0 in
               Serial.solve s x r ~base:0 ~lo:0 ~hi:p;
               r)
          in
          fun out ->
            let r = Lazy.force reference in
            (* past [tol], the boxed [S.approx_equal] decides *)
            let rec first i =
              let i = past_tol ~tol r out i in
              if i = p then None
              else
                let expected = r.(i) and got = out.(i) in
                if S.approx_equal ~tol expected got then first (i + 1)
                else divergence i got expected
            in
            first 0
      | _ ->
          let reference = lazy (Serial.full s (Array.sub x 0 p)) in
          fun out ->
            let r = Lazy.force reference in
            let rec first i =
              if i = p then None
              else if S.approx_equal ~tol r.(i) out.(i) then first (i + 1)
              else divergence i (S.to_float out.(i)) (S.to_float r.(i))
            in
            first 0
    in
    let validate out =
      match scan_non_finite out with
      | Some i -> Some (Non_finite { index = i })
      | None -> compare_reference out
    in
    Trace.begin_span2 Trace.Guard "guard.run" n 0;
    let attempts = ref [] in
    let record stage violation =
      (match violation with
      | Some v ->
          Trace.instant Trace.Guard "guard.degrade" (stage_code stage)
            (violation_code v)
      | None -> ());
      attempts := { stage; violation } :: !attempts
    in
    let try_stage stage f =
      match f () with
      | exception Plr_exec.Cancel.Cancelled ->
          (* Cooperative cancellation is the caller's abort, not an engine
             fault: close the guard span and let it propagate instead of
             burning the fallback stages on a request nobody wants. *)
          Trace.end_span ();
          raise Plr_exec.Cancel.Cancelled
      | exception e ->
          record stage (Some (Engine_error (Printexc.to_string e)));
          None
      | out -> (
          match validate out with
          | None ->
              record stage None;
              Some out
          | Some v ->
              record stage (Some v);
              None)
    in
    (* Pre-run prediction: an unstable signature whose factors provably
       overflow this scalar's float width inside the input makes the
       S-scalar attempts pointless — skip them before any O(n) work. *)
    let predicted_skip =
      if not floating then None
      else begin
        let ovf =
          if S.bytes <= 4 then stability.Stability.overflow_f32
          else stability.Stability.overflow_f64
        in
        match (stability.Stability.cls, ovf) with
        | Stability.Unstable, Some i when i < n ->
            Some (Predicted_overflow { index = i })
        | _ -> None
      end
    in
    let float64_serial () =
      if floating then
        let y64 =
          Serial64.full (Signature.map S.to_float s) (Array.map S.to_float x)
        in
        Array.map S.of_float y64
      else
        (* integer wrap-around is the defined ground truth: re-run the
           exact serial reference rather than losing bits in a float *)
        Serial.full s x
    in
    let finish output ~degraded ~ok =
      Trace.end_span ();
      { output; stability; attempts = List.rev !attempts; degraded; ok }
    in
    let accepted =
      match predicted_skip with
      | Some v ->
          record Parallel (Some v);
          record Sequential_fallback (Some v);
          None
      | None -> (
          match try_stage Parallel (fun () -> runner s x) with
          | Some out -> Some (out, false)
          | None -> (
              match
                try_stage Sequential_fallback (fun () ->
                    Multicore.run_sequential_fallback s x)
              with
              | Some out -> Some (out, true)
              | None -> None))
    in
    match accepted with
    | Some (out, degraded) -> finish out ~degraded ~ok:true
    | None -> (
        match float64_serial () with
        | exception e ->
            record Float64_serial (Some (Engine_error (Printexc.to_string e)));
            finish [||] ~degraded:true ~ok:false
        | out -> (
            (* the final stage is itself a serial evaluation, so only the
               non-finite scan is meaningful *)
            match scan_non_finite out with
            | None ->
                record Float64_serial None;
                finish out ~degraded:true ~ok:true
            | Some i ->
                record Float64_serial (Some (Non_finite { index = i }));
                finish out ~degraded:true ~ok:false))

  let gpusim_runner ?opts ?faults ?threads_per_block ?x ?lookback_window ~spec
      () : runner =
   fun s input ->
    let n = Array.length input in
    if n = 0 then [||]
    else begin
      let plan =
        match (threads_per_block, x) with
        | Some t, Some xv ->
            Engine.P.compile_with ?opts ?lookback_window ~spec ~n
              ~threads_per_block:t ~x:xv s
        | _ -> Engine.P.compile ?opts ~spec ~n s
      in
      (Engine.run_plan ?faults ~spec plan input).Engine.output
    end

  let multicore_runner ?opts ?faults ?plan ?cancel ?pool ?domains ?chunk_size
      () : runner =
   fun s input ->
    Multicore.run ?opts ?faults ?plan ?cancel ?pool ?domains ?chunk_size s
      input

  (* Try the native JIT kernel first; any unavailability (still building,
     build failed, poisoned, …) already recorded its [jit.fallback]
     instant inside [JB.run], so this simply hands the input to the OCaml
     fallback runner.  The JIT's own bitwise validation against the
     serial reference runs before the guard's check ladder ever sees
     its output. *)
  let jit_runner ~jit ~(fallback : runner) : runner =
   fun s input ->
    match JB.run jit input with Some y -> y | None -> fallback s input

  let pp_outcome ppf o =
    Format.fprintf ppf "@[<v>stability:@,  @[<v>%a@]@,attempts:@," Stability.pp_report
      o.stability;
    List.iter
      (fun a ->
        Format.fprintf ppf "  %-19s %s@," (stage_to_string a.stage)
          (match a.violation with
          | None -> "accepted"
          | Some v -> violation_to_string v))
      o.attempts;
    Format.fprintf ppf "degraded: %b@,ok: %b@]" o.degraded o.ok
end
