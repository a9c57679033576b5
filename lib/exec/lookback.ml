module Faults = Plr_gpusim.Faults
module Trace = Plr_trace.Trace

exception Fault_detected of string

let detected fmt = Printf.ksprintf (fun msg -> raise (Fault_detected msg)) fmt

(* Look-back window of the deterministic faulted replay: chunk [c] reads
   the inclusive carry of the last chunk of the previous window and the
   aggregates of every chunk after it.  Small so a few hundred elements
   span several waves in the chaos tests. *)
let faulted_lookback_window = 4

let default_window ~pool_size = max faulted_lookback_window (2 * pool_size)

(* Chunk-size policy.  Chunks below [min_chunk_size] lose more to protocol
   overhead than they gain in parallelism; with [chunks_per_domain] chunks
   per participant the dynamic counter can balance uneven progress without
   shrinking chunks further.  These are the heuristic defaults — a measured
   [Plr_core.Tune] search can beat them. *)
let min_chunk_size = 1024
let chunks_per_domain = 8

let default_chunk_size ~domains n =
  max min_chunk_size (n / (domains * chunks_per_domain))

(* The sequential fallback still chunks (identical algorithm, different
   schedule); the chunk count is fixed from the input length alone. *)
let fallback_chunks = 8

let fallback_chunk_size n =
  max min_chunk_size ((n + fallback_chunks - 1) / fallback_chunks)

let scalar_equal : type a. a Plr_util.Scalar.rep -> a -> a -> bool = function
  | Plr_util.Scalar.Int_rep -> Int.equal
  | Plr_util.Scalar.Float_rep _ ->
      fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)
  | Plr_util.Scalar.Other_rep -> fun _ _ -> true

let verified ~agree ~expected run =
  let y =
    match run () with
    | y -> y
    | exception (Fault_detected _ as e) -> raise e
    | exception e -> raise (Fault_detected (Printexc.to_string e))
  in
  Array.iteri
    (fun i v ->
      if not (agree v y.(i)) then detected "faulted run diverged at index %d" i)
    expected;
  y

module type CARRY = sig
  type t

  val cat : Trace.cat
  val run_span : string
  val chunk_span : string
  val lookback_span : string
  val publish_event : string
  val correct_span : string option
  val corrupt : lane:int -> t -> t
end

module Make (C : CARRY) = struct
  type ops = {
    local : base:int -> len:int -> C.t;
    combine : C.t -> C.t -> C.t;
    apply : base:int -> len:int -> C.t -> unit;
    equal : C.t -> C.t -> bool;
    poison : base:int -> len:int -> C.t -> C.t;
    correct_arg : int;
  }

  (* One kind of publication (local or inclusive carries): where a chunk
     publishes it, how a successor reads it (waiting for it if need be),
     and whether it is visible yet — status words on the pool,
     visibility-gated slots in the faulted replay. *)
  type channel = {
    publish : int -> C.t -> unit;
    read : int -> C.t;
    visible : int -> C.t option;
  }

  type medium = { poisoned : int -> bool; locals : channel; globals : channel }

  let boundary ~window c = (c / window * window) - 1

  let traced ~n ~m f =
    Trace.begin_span2 C.cat C.run_span n ((n + m - 1) / m);
    Fun.protect ~finally:Trace.end_span f

  (* One chunk of the decoupled look-back (Merrill–Garland, PAPERS.md):

     1. reduce the chunk to its local carry and publish it;
     2. look back: start from the inclusive carry of the last chunk of
        the previous window (or [start]), then fold the aggregates of the
        chunks between that boundary and this one, in ascending order —
        verifying each folded value against that chunk's own inclusive
        carry when it is already visible (same boundary, same fold order,
        hence bitwise comparable; a mismatch is a corrupted carry and
        raises before anything is committed);
     3. publish the inclusive carry — before step 4, so successors never
        wait on a correction;
     4. apply the exclusive carry to the chunk's own outputs. *)
  let task ~window ~start ~n ~m ops io c =
    let base = c * m in
    let len = min m (n - base) in
    Trace.begin_span2 C.cat C.chunk_span c len;
    let local = ops.local ~base ~len in
    let local = if io.poisoned c then ops.poison ~base ~len local else local in
    io.locals.publish c local;
    let b = boundary ~window c in
    let first = max 0 (b + 1) in
    Trace.begin_span2 C.cat C.lookback_span c
      (c - first + if b >= 0 then 1 else 0);
    let excl = ref (if b >= 0 then Some (io.globals.read b) else start) in
    for t = first to c - 1 do
      let lt = io.locals.read t in
      let g = match !excl with None -> lt | Some g -> ops.combine lt g in
      (match io.globals.visible t with
      | Some pub when not (ops.equal pub g) ->
          Trace.end_span ();
          Trace.end_span ();
          detected
            "carry verification failed: chunk %d's published inclusive carry \
             disagrees with the look-back fold"
            t
      | _ -> ());
      excl := Some g
    done;
    let excl = !excl in
    io.globals.publish c
      (match excl with None -> local | Some g -> ops.combine local g);
    Trace.end_span ();
    (match (excl, C.correct_span) with
    | None, _ -> ()
    | Some g, None -> ops.apply ~base ~len g
    | Some g, Some name ->
        Trace.begin_span2 C.cat name c ops.correct_arg;
        ops.apply ~base ~len g;
        Trace.end_span ());
    Trace.end_span ()

  let status_aggregate = 1
  let status_inclusive = 2

  (* The live schedule: one pool task per chunk.  Status words are the
     only atomics; carry payloads are plain writes made visible by the
     release/acquire pair on the status word.  The pool claims task
     indices in increasing order, so the lowest incomplete chunk only
     ever waits on chunks already past their publication point; a pool of
     size 1 runs the same tasks inline in index order. *)
  let run ?window ~cancel ~pool ~start ops ~n ~m =
    let chunks = (n + m - 1) / m in
    let locals = Array.make chunks None and globals = Array.make chunks None in
    let status = Array.init chunks (fun _ -> Atomic.make 0) in
    let window =
      match window with
      | Some w -> max 1 w
      | None -> default_window ~pool_size:(Pool.size pool)
    in
    let channel slots v =
      {
        publish =
          (fun c x ->
            slots.(c) <- Some x;
            Atomic.set status.(c) v;
            Trace.instant C.cat C.publish_event c v);
        read =
          (fun t ->
            while Atomic.get status.(t) < v do
              if Pool.cancelled pool then raise Pool.Stopped;
              Domain.cpu_relax ()
            done;
            Option.get slots.(t));
        visible =
          (fun t -> if Atomic.get status.(t) >= v then slots.(t) else None);
      }
    in
    let io =
      {
        poisoned = (fun _ -> false);
        locals = channel locals status_aggregate;
        globals = channel globals status_inclusive;
      }
    in
    Pool.run ~cancel pool ~tasks:chunks (fun c ->
        (* The chunk boundary is the cooperative preemption point. *)
        Cancel.check cancel;
        task ~window ~start ~n ~m ops io c)

  (* The deterministic faulted replay: the same task body, run
     sequentially in the plan's completion permutation, with publication
     visibility gated by Drop events.  A chunk is runnable when every
     publication it would spin on is visible; when no incomplete chunk is
     runnable the live protocol would spin forever, so the replay raises
     instead.  Drops the window never reads are routed around bit-exactly;
     [Delay_flag] is benign in this untimed model. *)
  let run_faulted ~faults ~start ops ~n ~m =
    let chunks = (n + m - 1) / m in
    let window = faulted_lookback_window in
    let events kind c = Faults.events_at faults ~chunks kind c in
    let locals = Array.make chunks None and globals = Array.make chunks None in
    (* Corruption strikes the published copies only, after the chunk's own
       computation, so only successors observe the damage. *)
    let channel slots drop =
      let vis = Array.make chunks false in
      {
        publish =
          (fun c x ->
            slots.(c) <-
              Some
                (List.fold_left
                   (fun x (e : Faults.event) -> C.corrupt ~lane:e.Faults.lane x)
                   x
                   (events Faults.Corrupt_carry c));
            if events drop c = [] then vis.(c) <- true);
        read = (fun t -> Option.get slots.(t));
        visible = (fun t -> if vis.(t) then slots.(t) else None);
      }
    in
    let io =
      {
        poisoned = (fun c -> events Faults.Poison_chunk c <> []);
        locals = channel locals Faults.Drop_local;
        globals = channel globals Faults.Drop_global;
      }
    in
    let finished = Array.make chunks false in
    let ready c =
      (not finished.(c))
      &&
      let b = boundary ~window c in
      let ok = ref (b < 0 || Option.is_some (io.globals.visible b)) in
      for t = max 0 (b + 1) to c - 1 do
        if Option.is_none (io.locals.visible t) then ok := false
      done;
      !ok
    in
    let order = Faults.permutation faults chunks in
    for completed = 0 to chunks - 1 do
      match Array.find_opt ready order with
      | None ->
          detected
            "look-back stall: %d of %d chunks blocked on carry publications \
             that were dropped"
            (chunks - completed) chunks
      | Some c ->
          task ~window ~start ~n ~m ops io c;
          finished.(c) <- true
    done
end
