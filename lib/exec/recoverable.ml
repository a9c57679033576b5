module Trace = Plr_trace.Trace

type fault = Crash | Corrupt_state | Engine_fault of int

let fault_to_string = function
  | Crash -> "crash"
  | Corrupt_state -> "corrupt-state"
  | Engine_fault seed -> Printf.sprintf "engine-fault(seed %d)" seed

let faulted_chunk = 16

module type STATE = sig
  type t
  type snapshot
  type segment

  val position : t -> int
  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit
  val digest : snapshot -> int
  val valid : snapshot -> bool
  val replay : t -> segment -> unit
  val replayed : segment -> int
  val crash : t -> unit
  val corrupt : t -> unit
  val cat : Trace.cat
  val checkpoint_span : string
  val recover_span : string
  val name : string
end

module Make (St : STATE) = struct
  type stats = {
    checkpoints : int;
    recoveries : int;
    detected : int;
    replayed : int;
  }

  type t = {
    st : St.t;
    every : int;
    on_checkpoint : unit -> unit;
    on_recovery : unit -> unit;
    mutable digest : int; (* of the live state; a mismatch = corruption *)
    mutable checkpoint : St.snapshot; (* last good snapshot *)
    mutable checkpoint_pos : int;
    mutable journal : St.segment list; (* since the checkpoint, newest first *)
    mutable armed : fault option;
    mutable stats : stats;
  }

  let create ?(on_checkpoint = ignore) ?(on_recovery = ignore)
      ?(checkpoint_every = 1024) st =
    let checkpoint = St.snapshot st in
    {
      st;
      every = max 1 checkpoint_every;
      on_checkpoint;
      on_recovery;
      digest = St.digest checkpoint;
      checkpoint;
      checkpoint_pos = St.position st;
      journal = [];
      armed = None;
      stats = { checkpoints = 0; recoveries = 0; detected = 0; replayed = 0 };
    }

  let state t = t.st
  let pending t = List.length t.journal

  let stats t = t.stats

  let live_digest t = St.digest (St.snapshot t.st)

  let checkpoint_now t =
    Trace.begin_span2 St.cat St.checkpoint_span (St.position t.st)
      (List.length t.journal);
    t.checkpoint <- St.snapshot t.st;
    t.checkpoint_pos <- St.position t.st;
    t.journal <- [];
    t.stats <- { t.stats with checkpoints = t.stats.checkpoints + 1 };
    t.on_checkpoint ();
    Trace.end_span ()

  (* Restore the last checkpoint and bring the state back to the current
     position by replaying the journal through the exact original code
     path, so the rebuilt state is bit-identical.  Only the segments since
     the last checkpoint are replayed, never the whole stream. *)
  let recover t =
    if not (St.valid t.checkpoint) then
      failwith (St.name ^ ": last checkpoint is corrupted, cannot recover");
    let journal = List.rev t.journal in
    let replayed =
      List.fold_left (fun acc s -> acc + St.replayed s) 0 journal
    in
    Trace.begin_span2 St.cat St.recover_span t.checkpoint_pos replayed;
    St.restore t.st t.checkpoint;
    List.iter (St.replay t.st) journal;
    t.stats <-
      {
        t.stats with
        recoveries = t.stats.recoveries + 1;
        replayed = t.stats.replayed + replayed;
      };
    t.digest <- live_digest t;
    t.on_recovery ();
    Trace.end_span ()

  let detected t =
    t.stats <- { t.stats with detected = t.stats.detected + 1 };
    recover t

  (* State-corrupting faults strike before the call's work; the digest
     check then discovers them exactly as it would discover real memory
     corruption.  An engine fault stays armed for the step itself. *)
  let step t fault f =
    Option.iter (fun f -> t.armed <- Some f) fault;
    (match t.armed with
    | Some Crash ->
        t.armed <- None;
        St.crash t.st
    | Some Corrupt_state ->
        t.armed <- None;
        St.corrupt t.st
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
    | exception Lookback.Fault_detected _ ->
        (* The faulted step raised or diverged before committing any state;
           rebuild from the checkpoint anyway (the state is no longer
           trusted) and re-run cleanly. *)
        detected t;
        f None

  let commit t seg =
    t.journal <- seg :: t.journal;
    if St.position t.st - t.checkpoint_pos >= t.every then checkpoint_now t;
    t.digest <- live_digest t
end
