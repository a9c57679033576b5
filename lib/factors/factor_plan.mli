(** The backend-agnostic compiled factor plan — the single source of the
    paper's §3.1/§3.3 correction-factor specializations.

    [compile] runs {!Plr_nnacci.Analysis} once per factor list under an
    {!Opts.t} and produces a self-describing compiled form per list.  Every
    backend consumes the same plan: the modeled GPU engine charges device
    counters through {!Make.hooks}, the CPU backends ([Multicore], [Stream])
    run the specialized {!Make.apply_list} sweep, and the CUDA generator
    ([Plr_codegen.Specialize]) emits code from the compiled constructors. *)

module Analysis = Plr_nnacci.Analysis

type bitmask
(** One bit per factor position (used by the 0/1 specialization). *)

val mask_get : bitmask -> int -> bool

module Make (S : Plr_util.Scalar.S) : sig
  type compiled =
    | All_equal of S.t
        (** every factor equals this constant; no table is stored *)
    | Zero_one of { period : int option; ones : bitmask }
        (** every factor is 0 or 1; [ones] marks the 1 positions.  With a
            short [period] (≤ 64) the pattern folds into a compile-time
            modulo test and no table is stored at all. *)
    | Repeating of { period : int; stored : S.t array }
        (** the list repeats; only the first period is stored *)
    | Decayed of { cutoff : int; stored : S.t array }
        (** all factors at index ≥ [cutoff] are exactly 0 (flush-to-zero
            index); consumers skip the all-zero tail — the CPU analogue of
            the paper's skip-whole-warps trick *)
    | Dense of S.t array  (** no specialization applies *)

  type t = {
    order : int;  (** k — number of factor lists *)
    m : int;  (** factors per list *)
    opts : Opts.t;
    raw : S.t array array;  (** the uncompressed k×m factor lists *)
    analyses : S.t Analysis.t array;  (** raw analysis, before [opts] gating *)
    compiled : compiled array;  (** one compiled form per list *)
    zero_tail : int option;
        (** corrections past this index are suppressed (FTZ optimization) *)
  }

  type hooks = {
    on_load : j:int -> q:int -> unit;
        (** a factor-table element load ([q] is the index within the stored
            table of list [j]) *)
    on_add : unit -> unit;
    on_mul : unit -> unit;
    on_select : unit -> unit;  (** the 0/1 conditional-add predicate *)
  }
  (** Callbacks charged by {!correct} with the exact operation mix of the
      specialized code — the GPU model plugs its device counters in here. *)

  val no_hooks : hooks

  val compile : ?opts:Opts.t -> ?max_period:int -> S.t array array -> t
  (** Analyze and compile precomputed factor lists.  [max_period] bounds the
      repetition search (see {!Analysis.Make.analyze}); CPU backends pass a
      small bound because their chunks are far larger than a GPU block's. *)

  val of_feedback :
    ?opts:Opts.t -> ?max_period:int -> feedback:S.t array -> m:int -> unit -> t
  (** Precompute the n-nacci factor lists for [feedback] ([m] per list) and
      compile them.  Floating-point factors are generated in double
      precision and converted down, so a decaying tail reaches exact zeros
      under FTZ (paper §3). *)

  val correct : ?hooks:hooks -> t -> j:int -> q:int -> carry:S.t -> acc:S.t -> S.t
  (** [acc + F_j(q)·carry] through the compiled form of list [j], invoking
      [hooks] with the specialized operation mix. *)

  val apply_list :
    t -> j:int -> carry:S.t -> S.t array -> base:int -> len:int -> unit
  (** Whole-list correction sweep: [y.(base+q) += F_j(q)·carry] for
      [q ∈ [0, len)], specialized per compiled form (the CPU hot path).
      Equivalent to folding {!correct} over [q]; a [Decayed] list stops at
      its cutoff. *)

  val apply_list_f :
    t ->
    j:int ->
    carry:S.t ->
    Plr_util.Buf.t ->
    base:int ->
    len:int ->
    unit
  (** {!apply_list} monomorphized onto unboxed {!Plr_util.Buf.t} storage.
      Only valid when [S.rep] is [Float_rep] (raises [Invalid_argument]
      otherwise); the refined branch replicates the generic evaluator's
      operation/rounding sequence exactly, so results are bitwise
      identical — including the emulated-binary32 round after every add
      and multiply.  The range is checked once, up front: an output
      window outside the buffer, or a [len] past the plan's [m], raise
      [Invalid_argument]. *)

  val apply_list_int :
    t ->
    j:int ->
    carry:S.t ->
    int array ->
    base:int ->
    len:int ->
    unit
  (** {!apply_list} monomorphized onto a flat [int array].  Only valid
      when [S.rep] is [Int_rep] (raises [Invalid_argument] otherwise);
      bitwise identical to the generic evaluator, with the range checked
      as in {!apply_list_f}. *)

  val effective : t -> int -> S.t Analysis.t
  (** The analysis of list [j] as the optimizer sees it after [opts]
      gating — [General] when the matching toggle is off. *)

  val value : t -> int -> int -> S.t
  (** [value t j q]: factor [q] of list [j], read back through the compiled
      representation. *)

  val table : t -> int -> S.t array option
  (** The device-resident table the compiled form of list [j] needs:
      [None] when the form folds into code (constant or short 0/1 period),
      the stored period/prefix for [Repeating]/[Decayed], the full list
      otherwise. *)

  val table_elems : t -> int -> int
  (** [Array.length] of {!table} (0 for [None]). *)

  val table_bytes : t -> int
  (** Total bytes of all stored tables. *)

  val one_positions : t -> int -> int list
  (** For a short-period 0/1 list: indices within one period whose factor
      is one.  Empty for every other compiled form. *)

  val describe : t -> int -> string
  (** Human-readable tag of the compiled form (for summaries and logs). *)

  val class_code : t -> int -> int
  (** Stable small integer for the compiled form of list [j] — 0
      all-equal, 1 zero-one, 2 repeating, 3 decayed, 4 dense.  Used as a
      trace-event argument (see [docs/observability.md]). *)
end
