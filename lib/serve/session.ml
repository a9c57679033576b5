module Pool = Plr_exec.Pool
module Trace = Plr_trace.Trace

type fault =
  | Crash
  | Corrupt_state
  | Engine_fault of int (* seed of the injected engine fault plan *)

let fault_to_string = function
  | Crash -> "crash"
  | Corrupt_state -> "corrupt-state"
  | Engine_fault seed -> Printf.sprintf "engine-fault(seed %d)" seed

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

  (* One journaled call. *)
  type segment = Data of S.t array | Gap of int

  (* A stream on the session's pool (replaced only by [migrate]), what a
     gap and a checkpoint need, and the recovery state: the live state's
     digest, the last good snapshot, and the segments processed since. *)
  type t = {
    metrics : Metrics.t option;
    tol : float;
    comp : Companion.t;
    every : int;
    mutable pool : Pool.t;
    mutable stream : Stream.t;
    mutable digest : int; (* of the live state; a mismatch = corruption *)
    mutable checkpoint : Checkpoint.t; (* last good snapshot *)
    mutable journal : segment list; (* since the checkpoint, newest first *)
    mutable armed : fault option;
    mutable checkpoints : int;
    mutable recoveries : int;
    mutable detected : int;
    mutable replayed : int;
    mutable fastforwards : int;
    mutable migrations : int;
  }

  let metric t g = match t.metrics with None -> () | Some m -> g m
  let signature t = Stream.signature t.stream
  let position t = Stream.position t.stream
  let carries t = Stream.carries t.stream

  let snapshot comp stream =
    Checkpoint.make comp ~pos:(Stream.position stream)
      ~carries:(Stream.carries stream) ~input_tail:(Stream.input_tail stream)

  let live_digest t = (snapshot t.comp t.stream).Checkpoint.digest

  let process_data ?seed t x =
    match seed with
    | None -> Stream.process t.stream x
    | Some seed -> Stream.process_faulted t.stream ~seed ~tol:t.tol x

  (* A gap of [n] zero inputs.  The FIR stage still reads the input tail
     for the first [taps - 1] steps, so that warm-up runs through the
     ordinary data path; the remainder is pure feedback on zero input —
     one O(k³ log g) companion skip-ahead instead of O(g) work. *)
  let gap_advance t n =
    let warm = min n (max 0 (Companion.taps t.comp - 1)) in
    if warm > 0 then ignore (process_data t (Array.make warm S.zero));
    let g = n - warm in
    if g > 0 then begin
      let st = t.stream in
      let pos = Stream.position st in
      Trace.begin_span2 Trace.Serve "session.ff" pos g;
      Stream.restore st ~pos:(pos + g)
        ~carries:(Companion.advance t.comp ~state:(Stream.carries st) ~steps:g)
        ~input_tail:(Stream.input_tail st);
      t.fastforwards <- t.fastforwards + 1;
      metric t (fun m -> Metrics.Counter.incr m.Metrics.session_fastforwards);
      Trace.end_span ()
    end

  (* ------------------------------------------------------- recovery *)

  let poison = S.of_int 0x5EED_BAD

  (* The state faults: a crash poisons every state word and loses a
     position (a lost position is part of losing memory); a corruption
     flips one word.  Both strike before the call's work, and the digest
     check then discovers them as it would real memory corruption. *)
  let crash t =
    let st = t.stream in
    Stream.restore st ~pos:(position t + 1)
      ~carries:(Array.map (fun _ -> poison) (Stream.carries st))
      ~input_tail:(Array.map (fun _ -> poison) (Stream.input_tail st))

  let corrupt t =
    let st = t.stream in
    let carries = Stream.carries st and input_tail = Stream.input_tail st in
    let flip a = a.(0) <- S.add (S.mul a.(0) (S.of_int 3)) (S.of_int 41) in
    if Array.length carries > 0 then flip carries
    else if Array.length input_tail > 0 then flip input_tail;
    Stream.restore st ~pos:(position t) ~carries ~input_tail

  let checkpoint_now t =
    Trace.begin_span2 Trace.Serve "session.checkpoint" (position t)
      (List.length t.journal);
    t.checkpoint <- snapshot t.comp t.stream;
    t.journal <- [];
    t.checkpoints <- t.checkpoints + 1;
    metric t (fun m -> Metrics.Counter.incr m.Metrics.session_checkpoints);
    Trace.end_span ()

  (* Restore the last checkpoint and bring the state back to the current
     position by replaying the journal through the exact original code
     path, so the rebuilt state is bit-identical.  Only the segments since
     the last checkpoint are replayed, never the whole stream. *)
  let recover t =
    if not (Checkpoint.valid t.checkpoint) then
      failwith "session: last checkpoint is corrupted, cannot recover";
    let journal = List.rev t.journal in
    let replayed =
      List.fold_left
        (fun acc -> function Data x -> acc + Array.length x | Gap _ -> acc)
        0 journal
    in
    let cp = t.checkpoint in
    Trace.begin_span2 Trace.Serve "session.recover" cp.Checkpoint.pos replayed;
    Stream.restore t.stream ~pos:cp.Checkpoint.pos
      ~carries:cp.Checkpoint.carries ~input_tail:cp.Checkpoint.input_tail;
    List.iter
      (function
        | Data x -> ignore (process_data t x : S.t array)
        | Gap n -> gap_advance t n)
      journal;
    t.recoveries <- t.recoveries + 1;
    t.replayed <- t.replayed + replayed;
    t.digest <- live_digest t;
    metric t (fun m -> Metrics.Counter.incr m.Metrics.session_recoveries);
    Trace.end_span ()

  let detected t =
    t.detected <- t.detected + 1;
    recover t

  (* Arm [fault], strike an armed state fault, check the live digest
     (recovering on a mismatch), then run [f] with the seed of an armed
     engine fault.  An engine fault that raises or diverges does so
     before [f] commits any state; the state is rebuilt from the
     checkpoint anyway (it is no longer trusted) and [f] re-runs
     cleanly. *)
  let step t fault f =
    Option.iter (fun f -> t.armed <- Some f) fault;
    (match t.armed with
    | Some Crash ->
        t.armed <- None;
        crash t
    | Some Corrupt_state ->
        t.armed <- None;
        corrupt t
    | Some (Engine_fault _) | None -> ());
    if live_digest t <> t.digest then detected t;
    let seed =
      match t.armed with
      | Some (Engine_fault seed) ->
          t.armed <- None;
          Some seed
      | _ -> None
    in
    match f seed with
    | y -> y
    | exception Plr_exec.Lookback.Fault_detected _ ->
        detected t;
        f None

  (* Snapshot once [every] elements have passed since the last snapshot,
     else journal the segment, and re-digest the live state.  A segment
     the snapshot would discard is never built. *)
  let commit t seg =
    if position t - t.checkpoint.Checkpoint.pos >= t.every then
      checkpoint_now t
    else t.journal <- seg () :: t.journal;
    t.digest <- live_digest t

  (* ------------------------------------------------------------ API *)

  let create ?pool ?domains ?metrics ?(checkpoint_every = 1024) ?(tol = 1e-3)
      (signature : S.t Signature.t) =
    let pool = match pool with Some p -> p | None -> Pool.get ?domains () in
    (* Compiled from the full signature so the checkpoint knows the real
       FIR tap count; [advance] reads only the feedback. *)
    let comp = Companion.compile signature in
    let stream = Stream.create ~pool signature in
    let checkpoint = snapshot comp stream in
    {
      metrics;
      tol;
      comp;
      every = max 1 checkpoint_every;
      pool;
      stream;
      digest = checkpoint.Checkpoint.digest;
      checkpoint;
      journal = [];
      armed = None;
      checkpoints = 0;
      recoveries = 0;
      detected = 0;
      replayed = 0;
      fastforwards = 0;
      migrations = 0;
    }

  let stats t =
    {
      position = position t;
      checkpoints = t.checkpoints;
      recoveries = t.recoveries;
      fastforwards = t.fastforwards;
      detected = t.detected;
      replayed = t.replayed;
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
    if pool != t.pool then begin
      Trace.begin_span2 Trace.Serve "session.migrate" (position t)
        (List.length t.journal);
      Fun.protect ~finally:Trace.end_span @@ fun () ->
      t.pool <- pool;
      t.stream <- Stream.create ~pool (signature t);
      recover t;
      t.migrations <- t.migrations + 1;
      metric t (fun m -> Metrics.Counter.incr m.Metrics.session_migrations)
    end

  let process ?fault t x =
    let y = step t fault (fun seed -> process_data ?seed t x) in
    if Array.length x > 0 then commit t (fun () -> Data (Array.copy x));
    y

  let skip ?fault t n =
    if n < 0 then invalid_arg "Session.skip: negative gap";
    step t fault ignore;
    if n > 0 then begin
      gap_advance t n;
      commit t (fun () -> Gap n)
    end
end
