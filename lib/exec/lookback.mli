(** The decoupled look-back protocol (Merrill–Garland, PAPERS.md; the
    paper's Phase 2), written once over a carry.  The CPU engines are its
    instances: {!Plr_multicore.Multicore} with k-vector carries promoted
    by the n-nacci correction factors, {!Plr_scan.Scan} with (a, b)
    operator pairs.

    Each chunk publishes its local (aggregate) carry, looks back over a
    bounded window — the inclusive carry of the previous window's last
    chunk plus the aggregates published since — folds them in ascending
    order, verifies every folded value bitwise against that chunk's
    inclusive carry when it is already visible, publishes its own
    inclusive carry, and only then applies its exclusive carry to its
    outputs.  Every schedule folds in the same order, so outputs are
    bitwise identical across pool sizes and completion orders. *)

module Faults = Plr_gpusim.Faults

exception Fault_detected of string
(** A carry failed its before-commit verification, an injected fault made
    progress impossible (a dropped publication the live protocol would
    spin on forever), or a faulted run failed {!verify}. *)

(** {1 Chunk and window policy} *)

val faulted_lookback_window : int
(** Window of the faulted replay (4). *)

val default_window : pool_size:int -> int
(** [max faulted_lookback_window (2 × pool_size)]. *)

val min_chunk_size : int

val default_chunk_size : domains:int -> int -> int
(** Several chunks per participating domain, at least {!min_chunk_size}. *)

val fallback_chunk_size : int -> int
(** The one-domain fallback's: a fixed chunk count for the input length,
    at least {!min_chunk_size}. *)

val scalar_equal : 'a Plr_util.Scalar.rep -> 'a -> 'a -> bool
(** Bitwise scalar equality (float bit patterns).  Scalars without a
    cheap bit view compare equal, which skips verification. *)

val verify :
  agree:('a -> 'a -> bool) ->
  expected:'a array ->
  (unit -> 'a array) ->
  unit
(** [verify ~agree ~expected run] checks [run ()] against [expected]
    element-wise — the whole-output check of an engine-fault step, which
    only detects: the caller commits its own clean output, never the
    faulted run's.  @raise Fault_detected if [run] raised or
    disagreed. *)

(** {1 The protocol} *)

(** The trace names of a carry's engine and the corruption hook of the
    faulted replay. *)
module type CARRY = sig
  type t

  val cat : Plr_trace.Trace.cat
  val run_span : string
  val chunk_span : string
  val lookback_span : string
  val publish_event : string
  val correct_span : string option
  val corrupt : lane:int -> t -> t
end

module Make (C : CARRY) : sig
  type ops = {
    local : base:int -> len:int -> C.t;  (** solve or reduce the chunk *)
    combine : C.t -> C.t -> C.t;  (** [combine local prev] *)
    apply : base:int -> len:int -> C.t -> unit;
        (** apply the exclusive carry to the chunk's outputs *)
    equal : C.t -> C.t -> bool;  (** bitwise *)
    poison : base:int -> len:int -> C.t -> C.t;
        (** faulted replay: corrupt the chunk's partial result; the local
            carry it then publishes *)
    correct_arg : int;  (** second argument of [C.correct_span] *)
  }
  (** The chunk operations of one run, specialized to its storage. *)

  val traced : n:int -> m:int -> (unit -> 'a) -> 'a
  (** Run inside the engine's run span. *)

  val run :
    ?window:int ->
    cancel:Cancel.t ->
    pool:Pool.t ->
    start:C.t option ->
    ops ->
    n:int ->
    m:int ->
    unit
  (** The live schedule on [pool], one task per [m]-element chunk.  The
      fold starts from [start] ([None]: chunk 0's local carry is its
      inclusive one).  [window] defaults to {!default_window}; [cancel]
      is polled at every chunk boundary. *)

  val run_faulted :
    faults:Faults.plan -> start:C.t option -> ops -> n:int -> m:int -> unit
  (** The same task body run sequentially in [faults]' completion
      permutation with window {!faulted_lookback_window}.  Dropped
      publications are invisible: routed around bit-exactly when the
      window never reads them, {!Fault_detected} when it would stall. *)
end
