(** Checkpoint, journal and replay recovery for streaming state, written
    once for {!Plr_serve.Session} (k-vector carries of a
    {!Plr_multicore.Stream}) and {!Plr_scan.Scan.Make.Stream} ((a, b)
    carries).

    The live state is covered by a {b digest}; a snapshot is taken every
    [checkpoint_every] elements and the segments processed since live in
    a {b journal}.  A detected fault — corruption caught by the digest, a
    crash, or an engine fault caught by the step itself — triggers
    {b recovery}: restore the last snapshot and replay the journal
    through the exact original code path, so the rebuilt state is
    bit-identical to the unfaulted run's. *)

type fault =
  | Crash  (** lose the in-memory state before the next call's work *)
  | Corrupt_state  (** silently flip one live state word *)
  | Engine_fault of int
      (** run the next step's engine under the seeded fault plan *)

val fault_to_string : fault -> string

val faulted_chunk : int
(** Chunk size of an engine-fault step (16, the chaos harness's): small
    pieces still span several chunks of the look-back protocol. *)

(** The state a stream recovers. *)
module type STATE = sig
  type t
  type snapshot
  type segment  (** one journaled call *)

  val position : t -> int
  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit
  val digest : snapshot -> int  (** recorded when the snapshot was taken *)

  val valid : snapshot -> bool  (** the snapshot still matches its digest *)

  val replay : t -> segment -> unit  (** re-run a segment, unfaulted *)

  val replayed : segment -> int  (** data elements a replay re-processes *)

  val crash : t -> unit  (** poison every state word, lose a position *)

  val corrupt : t -> unit  (** flip one state word *)

  val cat : Plr_trace.Trace.cat
  val checkpoint_span : string
  val recover_span : string
  val name : string  (** prefix of the unrecoverable-checkpoint failure *)
end

module Make (St : STATE) : sig
  type t

  type stats = {
    checkpoints : int;  (** snapshots taken *)
    recoveries : int;  (** checkpoint restorations performed *)
    detected : int;  (** faults detected (digest mismatch or engine) *)
    replayed : int;  (** data elements re-processed across recoveries *)
  }

  val create :
    ?on_checkpoint:(unit -> unit) ->
    ?on_recovery:(unit -> unit) ->
    ?checkpoint_every:int ->
    St.t ->
    t
  (** Recovery around [St.t], whose current state is the first snapshot,
      with a snapshot every [checkpoint_every] elements (default 1024);
      the callbacks follow every snapshot and recovery. *)

  val state : t -> St.t
  val stats : t -> stats
  val pending : t -> int  (** journaled segments since the last snapshot *)

  val step : t -> fault option -> (int option -> 'a) -> 'a
  (** [step t fault f] arms [fault], strikes an armed state fault, checks
      the live digest (recovering on mismatch), then runs [f] with the
      seed of an armed engine fault.  If [f] raises
      {!Lookback.Fault_detected}, the state is recovered and [f None]
      re-runs cleanly.  Call {!commit} after a step that advanced the
      state. *)

  val commit : t -> (unit -> St.segment) -> unit
  (** Snapshot when [checkpoint_every] elements have passed since the
      last snapshot, else journal the segment (built only then), and
      re-digest the live state. *)

  val recover : t -> unit
  (** Restore the last snapshot and replay the journal.
      @raise Failure if the snapshot fails its digest check. *)
end
