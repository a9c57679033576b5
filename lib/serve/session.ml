module Pool = Plr_exec.Pool
module Trace = Plr_trace.Trace
module Recoverable = Plr_exec.Recoverable

type fault = Recoverable.fault =
  | Crash
  | Corrupt_state
  | Engine_fault of int (* seed of the injected engine fault plan *)

let fault_to_string = Recoverable.fault_to_string

module Make (S : Plr_util.Scalar.S) = struct
  module Stream = Plr_multicore.Stream.Make (S)
  module Companion = Plr_robust.Companion.Make (S)
  module Checkpoint = Companion.Checkpoint

  type stats = {
    position : int;
    checkpoints : int;
    recoveries : int;
    fastforwards : int;
    detected : int;
    replayed : int;
    migrations : int;
  }

  (* The recovered state: a stream on the session's pool (replaced only
     by [migrate]) plus what a gap and a checkpoint need. *)
  type filter = {
    metrics : Metrics.t option;
    tol : float;
    comp : Companion.t;
    mutable pool : Pool.t;
    mutable stream : Stream.t;
    mutable fastforwards : int;
  }

  type segment = Data of S.t array | Gap of int

  let metric f g = match f.metrics with None -> () | Some m -> g m

  let process_data ?seed f x =
    match seed with
    | None -> Stream.process f.stream x
    | Some seed -> Stream.process_faulted f.stream ~seed ~tol:f.tol x

  (* A gap of [n] zero inputs.  The FIR stage still reads the input tail
     for the first [taps - 1] steps, so that warm-up runs through the
     ordinary data path; the remainder is pure feedback on zero input —
     one O(k³ log g) companion skip-ahead instead of O(g) work. *)
  let gap_advance f n =
    let warm = min n (max 0 (Companion.taps f.comp - 1)) in
    if warm > 0 then ignore (process_data f (Array.make warm S.zero));
    let g = n - warm in
    if g > 0 then begin
      let st = f.stream in
      let pos = Stream.position st in
      Trace.begin_span2 Trace.Serve "session.ff" pos g;
      Stream.restore st ~pos:(pos + g)
        ~carries:(Companion.advance f.comp ~state:(Stream.carries st) ~steps:g)
        ~input_tail:(Stream.input_tail st);
      f.fastforwards <- f.fastforwards + 1;
      metric f (fun m -> Metrics.Counter.incr m.Metrics.session_fastforwards);
      Trace.end_span ()
    end

  let poison = S.of_int 0x5EED_BAD

  module R = Recoverable.Make (struct
    type t = filter
    type snapshot = Checkpoint.t
    type nonrec segment = segment

    let position f = Stream.position f.stream

    let snapshot f =
      Checkpoint.make f.comp ~pos:(position f)
        ~carries:(Stream.carries f.stream)
        ~input_tail:(Stream.input_tail f.stream)

    let digest cp = cp.Checkpoint.digest
    let valid = Checkpoint.valid

    let restore f (cp : Checkpoint.t) =
      Stream.restore f.stream ~pos:cp.Checkpoint.pos
        ~carries:cp.Checkpoint.carries ~input_tail:cp.Checkpoint.input_tail

    let replay f = function
      | Data x -> ignore (process_data f x : S.t array)
      | Gap n -> gap_advance f n

    let replayed = function Data x -> Array.length x | Gap _ -> 0

    let crash f =
      let st = f.stream in
      (* a lost position is part of losing memory *)
      Stream.restore st ~pos:(position f + 1)
        ~carries:(Array.map (fun _ -> poison) (Stream.carries st))
        ~input_tail:(Array.map (fun _ -> poison) (Stream.input_tail st))

    let corrupt f =
      let st = f.stream in
      let carries = Stream.carries st and input_tail = Stream.input_tail st in
      let flip a = a.(0) <- S.add (S.mul a.(0) (S.of_int 3)) (S.of_int 41) in
      if Array.length carries > 0 then flip carries
      else if Array.length input_tail > 0 then flip input_tail;
      Stream.restore st ~pos:(position f) ~carries ~input_tail

    let cat = Trace.Serve
    let checkpoint_span = "session.checkpoint"
    let recover_span = "session.recover"
    let name = "session"
  end)

  type t = { r : R.t; f : filter; mutable migrations : int }

  let create ?pool ?domains ?metrics ?checkpoint_every ?(tol = 1e-3)
      (signature : S.t Signature.t) =
    let pool = match pool with Some p -> p | None -> Pool.get ?domains () in
    let f =
      {
        metrics;
        tol;
        (* Compiled from the full signature so the checkpoint layer knows
           the real FIR tap count; [advance] reads only the feedback. *)
        comp = Companion.compile signature;
        pool;
        stream = Stream.create ~pool signature;
        fastforwards = 0;
      }
    in
    let count field () = metric f (fun m -> Metrics.Counter.incr (field m)) in
    let r =
      R.create ?checkpoint_every
        ~on_checkpoint:(count (fun m -> m.Metrics.session_checkpoints))
        ~on_recovery:(count (fun m -> m.Metrics.session_recoveries))
        f
    in
    { r; f; migrations = 0 }

  let signature t = Stream.signature t.f.stream
  let position t = Stream.position t.f.stream
  let carries t = Stream.carries t.f.stream

  let stats t =
    let r = R.stats t.r in
    {
      position = position t;
      checkpoints = r.R.checkpoints;
      recoveries = r.R.recoveries;
      fastforwards = t.f.fastforwards;
      detected = r.R.detected;
      replayed = r.R.replayed;
      migrations = t.migrations;
    }

  (* Move the session to another pool (in the serving layer: another
     shard).  Sticky sessions are never *stolen* — their state words live
     on the owning shard — so a move is explicit and runs the recovery
     path: a fresh stream on the destination pool, the last checkpoint
     restored into it and the journal replayed.  Replay is the exact
     original code path, so the rebuilt state is bit-identical to the
     pre-migration state and the stream's outputs are unaffected. *)
  let migrate t ~pool =
    if pool != t.f.pool then begin
      Trace.begin_span2 Trace.Serve "session.migrate" (position t)
        (R.pending t.r);
      Fun.protect ~finally:Trace.end_span @@ fun () ->
      t.f.pool <- pool;
      t.f.stream <- Stream.create ~pool (signature t);
      R.recover t.r;
      t.migrations <- t.migrations + 1;
      metric t.f (fun m -> Metrics.Counter.incr m.Metrics.session_migrations)
    end

  let process ?fault t x =
    let y = R.step t.r fault (fun seed -> process_data ?seed t.f x) in
    if Array.length x > 0 then R.commit t.r (fun () -> Data (Array.copy x));
    y

  let skip ?fault t n =
    if n < 0 then invalid_arg "Session.skip: negative gap";
    R.step t.r fault ignore;
    if n > 0 then begin
      gap_advance t.f n;
      R.commit t.r (fun () -> Gap n)
    end
end
