(* Shared plumbing of the PLR benchmark: the run context, metrics,
   order statistics, output checks, and the spans the benchmark records
   around every call it makes into a layer. *)

module Scalar = Plr_util.Scalar
module Splitmix = Plr_util.Splitmix
module Buf = Plr_util.Buf
module F32 = Plr_util.F32
module Trace = Plr_trace.Trace

(* Seconds on the monotonic clock, at nanosecond resolution: the
   serving latencies being measured are tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type ctx = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  smoke : bool;  (** small inputs, for the [dune runtest] smoke check *)
  traced : bool;  (** record spans and report per-layer metrics *)
  setup_only : bool;  (** stop after set-up: one more [setup_s] sample *)
  self_test : bool;  (** corrupt one output, which must count as failed *)
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Elements per second of time spent inside the operations themselves:
   reported by every run, traced or not, so that the two can be compared
   for the tracing overhead. *)
let op_rate ~elems ~op_s = metric "op.gelem_s" "Gelem/s" (elems /. op_s /. 1e9)

type result = {
  setup_s : float;
  attempted : int;
  failed : int;
  metrics : metric list;
      (** [op.gelem_s], then the end-to-end metrics in an untraced run or
          the per-layer ones in a traced run *)
}

(* ------------------------------------------------------------ samples *)

(* A growable float vector: latencies and per-round rates are pushed on
   the timed path, so appends must not allocate per sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Linearly interpolated quantile of an unsorted sample ([q] in [0, 1]);
   [nan] on an empty one. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a

(* Elements completed in each whole one-second window of a run, from the
   completion offsets (seconds since the start) and sizes of the
   operations that succeeded.  The partial last window is dropped. *)
let window_rates ~wall ~at ~elems =
  let nwin = max 1 (int_of_float wall) in
  let acc = Array.make nwin 0.0 in
  Array.iteri
    (fun i t ->
      let w = int_of_float t in
      if w >= 0 && w < nwin then acc.(w) <- acc.(w) +. elems.(i))
    at;
  Array.map (fun e -> e /. 1e9) acc

(* ------------------------------------------------------------- inputs *)

(* Elements per batch call, and of the copy that is their roofline: 2^22
   is 32 MiB per array, far past the 4 MiB per-core L2. *)
let batch_n (ctx : ctx) = if ctx.smoke then 1 lsl 16 else 1 lsl 22

let rng ~seed salt = Splitmix.create ((seed * 1_000_003) + salt)

(* Small integers keep integer recurrences far from wrap-around surprises
   and float prefix sums exact for longer; the serving load generator
   draws from the same range. *)
let small_int g = Splitmix.int_in g ~lo:(-9) ~hi:9

let f32_sig (e : Table1.entry) =
  Signature.map F32.round e.Table1.signature

let int_sig (e : Table1.entry) =
  match Parse.to_int_signature e.Table1.signature with
  | Some s -> s
  | None -> invalid_arg ("not an integer signature: " ^ e.Table1.name)

(* ------------------------------------------------------------- checks *)

(* [--self-test] sets this; the first output checked afterwards, by
   whichever domain gets there first, is corrupted before comparison and
   must be counted as failed. *)
let tamper = Atomic.make false
let take_tamper () = Atomic.exchange tamper false

(* Integer references live off the OCaml heap, so the collector never
   marks them: the work a major slice does inside a timed call must not
   depend on how much the benchmark keeps for checking. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints_of_array a : ints = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout a

let ints_equal ~(expected : ints) (got : int array) =
  if take_tamper () && Array.length got > 0 then got.(0) <- got.(0) + 1;
  let n = Bigarray.Array1.dim expected in
  Array.length got = n
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    if Array.unsafe_get got !i <> Bigarray.Array1.unsafe_get expected !i then ok := false;
    incr i
  done;
  !ok

(* Float backends may reassociate (that is what makes them parallel), so
   outputs are compared normwise: every element within the paper's 1e-3
   bound of the reference, scaled by the reference's largest magnitude.
   A NaN anywhere fails. *)
let tol = 1e-3

let scale_of get n =
  let m = ref 0.0 in
  for i = 0 to n - 1 do
    m := Float.max !m (Float.abs (get i))
  done;
  1.0 +. !m

let close_by ~scale ~n ~expected ~got =
  let bound = tol *. scale in
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    if not (Float.abs (got !i -. expected !i) <= bound) then ok := false;
    incr i
  done;
  !ok

let floats_close ~scale ?(off = 0) ~(expected : float array) (got : float array)
    =
  if take_tamper () && Array.length got > 0 then got.(0) <- Float.nan;
  let n = Array.length got in
  off + n <= Array.length expected
  && close_by ~scale ~n
       ~expected:(fun i -> Array.unsafe_get expected (off + i))
       ~got:(fun i -> Array.unsafe_get got i)

let buf_close ~scale ~(expected : Buf.t) (got : Buf.t) =
  if take_tamper () && Buf.length got > 0 then Buf.set got 0 Float.nan;
  let n = Buf.length expected in
  Buf.length got >= n
  && close_by ~scale ~n ~expected:(Buf.uget expected) ~got:(Buf.uget got)

(* -------------------------------------------------------------- spans *)

(* Every call into a layer runs inside an [App] span named
   [bench.<layer>.<entry>]; the benchmark's own work (checks, GC settling,
   waiting for an arrival) runs inside [bench.harness.<what>].  While the
   trace sink is off each span costs one atomic load. *)
let span name f =
  Trace.begin_span Trace.App name;
  match f () with
  | v ->
      Trace.end_span ();
      v
  | exception e ->
      Trace.end_span ();
      raise e

let domain_id () = (Domain.self () :> int)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Allocation in bytes: OCaml 5 folds a joined domain's counters into the
   global ones, so read this after every generator domain has joined. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* The memmove-class roofline for [n] float64 elements: median of several
   whole-buffer blits, as Gelem/s. *)
let copy_gelem_s n =
  let src = Buf.init n float_of_int and dst = Buf.create n in
  Buf.blit ~src ~dst;
  let times =
    Array.init 7 (fun _ ->
        let t0 = now () in
        Buf.blit ~src ~dst;
        now () -. t0)
  in
  float_of_int n /. median times /. 1e9
