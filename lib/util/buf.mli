(** Unboxed float64 storage for the CPU hot path.

    A [Buf.t] is a C-layout [Bigarray.Array1] of binary64 values: the
    payload lives outside the OCaml heap as a flat [double] vector, so
    reads and writes in monomorphic code compile to direct unboxed
    loads/stores and a buffer costs O(1) heap words regardless of
    length.  The kernels in [Plr_serial], [Plr_multicore] and
    [Plr_factors] operate on this type directly; conversion to and from
    boxed [float array] happens only at the public API boundary
    ({!of_array}/{!to_array}).

    The type equation is exposed on purpose: hot loops may use
    [Bigarray.Array1.unsafe_get]/[unsafe_set] directly, which the
    compiler specializes to unboxed accesses because the element kind
    and layout are statically known. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n] is a zero-filled buffer of length [n]. *)

val length : t -> int

val get : t -> int -> float
(** Bounds-checked read. *)

val set : t -> int -> float -> unit
(** Bounds-checked write. *)

val uget : t -> int -> float
(** Unchecked read — caller guarantees [0 <= i < length]. *)

val uset : t -> int -> float -> unit
(** Unchecked write — caller guarantees [0 <= i < length]. *)

val fill : t -> float -> unit

val sub : t -> pos:int -> len:int -> t
(** Zero-copy view sharing storage with the parent buffer. *)

val blit : src:t -> dst:t -> unit
(** Whole-buffer blit; lengths must match. *)

val blit_range : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

val check_into : string -> src:t -> dst:t -> unit
(** [check_into what ~src ~dst] enforces the buffer contract of the
    [*_into] evaluators: [dst] holds at least [length src] elements and
    is not [src] itself, since an evaluator writes an output before it
    has read every input that output's successors need.  Raises
    [Invalid_argument] prefixed with [what] otherwise.  Views of one
    buffer made with {!sub} are distinct values, so an overlap between
    them is not caught here: the evaluators document that [dst] must not
    overlap [src]. *)

val of_array : float array -> t
(** Boundary conversion: copies a boxed [float array] into fresh unboxed
    storage. *)

val to_array : t -> float array
(** Boundary conversion: copies unboxed storage back into a boxed
    [float array]. *)

val blit_from_array : float array -> t -> unit
(** Copy [Array.length a] leading elements of the array into the buffer
    (which must be at least that long) without allocating. *)

val blit_to_array : t -> float array -> unit
(** Copy [Array.length a] leading elements of the buffer into the array
    without allocating. *)

val init : int -> (int -> float) -> t
