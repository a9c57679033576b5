module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Trace = Plr_trace.Trace
module Buf = Plr_util.Buf
module A1 = Bigarray.Array1

module Lookback = Plr_exec.Lookback

exception Fault_detected = Lookback.Fault_detected

module Opts = Plr_factors.Opts

let faulted_lookback_window = Lookback.faulted_lookback_window

(* Monomorphic fused chunk solves: the FIR part reads the immutable input
   (including the tail of the previous chunk) and the feedback part reads
   only this chunk's own outputs, exactly like the generic
   [solve_range] below, with the same per-element operation order
   [((0 + a0·x(i)) + a1·x(i-1) ...) + b1·y(i-1) + b2·y(i-2) ...].  The
   first k outputs of a chunk see fewer than k predecessors and take the
   order-generic [solve_range_*] loop; the rest ([solve_tail_*]) take a
   kernel specialized on the order that keeps the accumulator and the
   last k outputs in locals, so each output is stored once and never
   reloaded.  Float orders above 3 and int orders above 2 stay on the
   generic loop. *)

(* Binary32 rounding through the call's own {!Plr_util.F32.cell}: a
   store and a load the compiler emits inline, bitwise the
   [Int32.bits_of_float] round trip of {!Plr_util.Scalar.F32}. *)
let[@inline] round f32 (cell : Plr_util.F32.cell) v =
  if f32 then begin
    A1.unsafe_set cell 0 v;
    A1.unsafe_get cell 0
  end
  else v

(* Outputs [lo, hi) of the chunk starting at [base], for any order k. *)
let solve_range_f ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : Buf.t) (y : Buf.t) ~base ~lo ~hi =
  let taps = Array.length forward in
  let k = Array.length feedback in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. A1.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let d = i - base in
    let jmax = if d < k then d else k in
    for j = 1 to jmax do
      let p = Array.unsafe_get feedback (j - 1) *. A1.unsafe_get y (i - j) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    A1.unsafe_set y i !acc
  done

(* Orders 1–3, outputs [lo, hi) with [lo - k] still inside the chunk:
   the last k outputs ride in [y1 .. y3].  The FIR loop is written out in
   each kernel — a float-returning helper the compiler cannot inline
   would box its result once per element.  The coefficients are read
   into locals: a product with a boxed operand would be emitted as
   [y1 · b1], and of two NaN operands x86 returns the first, so only
   [b1 · y1] keeps the boxed evaluator's NaN payloads. *)
let solve_f1 ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : Buf.t) (y : Buf.t) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 in
  let y1 = ref (A1.unsafe_get y (lo - 1)) in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. A1.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let v = round f32 cell (!acc +. round f32 cell (b1 *. !y1)) in
    A1.unsafe_set y i v;
    y1 := v
  done

let solve_f2 ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : Buf.t) (y : Buf.t) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 and b2 = Array.unsafe_get feedback 1 in
  let y1 = ref (A1.unsafe_get y (lo - 1)) in
  let y2 = ref (A1.unsafe_get y (lo - 2)) in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. A1.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let v = round f32 cell (!acc +. round f32 cell (b1 *. !y1)) in
    let v = round f32 cell (v +. round f32 cell (b2 *. !y2)) in
    A1.unsafe_set y i v;
    y2 := !y1;
    y1 := v
  done

let solve_f3 ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : Buf.t) (y : Buf.t) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 and b2 = Array.unsafe_get feedback 1 in
  let b3 = Array.unsafe_get feedback 2 in
  let y1 = ref (A1.unsafe_get y (lo - 1)) in
  let y2 = ref (A1.unsafe_get y (lo - 2)) in
  let y3 = ref (A1.unsafe_get y (lo - 3)) in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. A1.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let v = round f32 cell (!acc +. round f32 cell (b1 *. !y1)) in
    let v = round f32 cell (v +. round f32 cell (b2 *. !y2)) in
    let v = round f32 cell (v +. round f32 cell (b3 *. !y3)) in
    A1.unsafe_set y i v;
    y3 := !y2;
    y2 := !y1;
    y1 := v
  done

(* Outputs [lo, hi) once the k outputs before [lo >= k] are in [y]: the
   kernel for the order, or the generic loop, which then sums all k
   feedback terms wherever the chunk began. *)
let solve_tail_f ~f32 ~forward ~feedback x y ~lo ~hi =
  let cell = Plr_util.F32.cell () in
  match Array.length feedback with
  | 1 -> solve_f1 ~f32 cell ~forward ~feedback x y ~lo ~hi
  | 2 -> solve_f2 ~f32 cell ~forward ~feedback x y ~lo ~hi
  | 3 -> solve_f3 ~f32 cell ~forward ~feedback x y ~lo ~hi
  | _ -> solve_range_f ~f32 cell ~forward ~feedback x y ~base:0 ~lo ~hi

let solve_chunk_f ~f32 ~forward ~feedback x y ~base ~len =
  let k = Array.length feedback in
  let lo = base + min len k and hi = base + len in
  solve_range_f ~f32 (Plr_util.F32.cell ()) ~forward ~feedback x y ~base
    ~lo:base ~hi:lo;
  if lo < hi then solve_tail_f ~f32 ~forward ~feedback x y ~lo ~hi

(* The same on flat [int array] storage.  Int arithmetic is exact mod
   2^63, so the order of the sum is free: each kernel adds the chained
   term [b1·y(i-1)] last, off the path of the rest. *)
let solve_range_i ~(forward : int array) ~(feedback : int array)
    (x : int array) (y : int array) ~base ~lo ~hi =
  let taps = Array.length forward in
  let k = Array.length feedback in
  for i = lo to hi - 1 do
    let acc = ref 0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      acc := !acc + (Array.unsafe_get forward t * Array.unsafe_get x (i - t))
    done;
    let d = i - base in
    let jmax = if d < k then d else k in
    for j = 1 to jmax do
      acc := !acc + (Array.unsafe_get feedback (j - 1) * Array.unsafe_get y (i - j))
    done;
    Array.unsafe_set y i !acc
  done

(* One kernel per order, not one zero-padded to the highest: a padded
   order-3 kernel spilled [y1] to the stack, putting a store and a load
   on the recurrence's critical path. *)
let solve_i1 ~(forward : int array) ~(feedback : int array) (x : int array)
    (y : int array) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 in
  let y1 = ref (Array.unsafe_get y (lo - 1)) in
  for i = lo to hi - 1 do
    let acc = ref 0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      acc := !acc + (Array.unsafe_get forward t * Array.unsafe_get x (i - t))
    done;
    let v = !acc + (b1 * !y1) in
    Array.unsafe_set y i v;
    y1 := v
  done

let solve_i2 ~(forward : int array) ~(feedback : int array) (x : int array)
    (y : int array) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 and b2 = Array.unsafe_get feedback 1 in
  let y1 = ref (Array.unsafe_get y (lo - 1)) in
  let y2 = ref (Array.unsafe_get y (lo - 2)) in
  for i = lo to hi - 1 do
    let acc = ref (b2 * !y2) in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      acc := !acc + (Array.unsafe_get forward t * Array.unsafe_get x (i - t))
    done;
    let v = !acc + (b1 * !y1) in
    Array.unsafe_set y i v;
    y2 := !y1;
    y1 := v
  done

let solve_tail_i ~forward ~feedback x y ~lo ~hi =
  match Array.length feedback with
  | 1 -> solve_i1 ~forward ~feedback x y ~lo ~hi
  | 2 -> solve_i2 ~forward ~feedback x y ~lo ~hi
  | _ -> solve_range_i ~forward ~feedback x y ~base:0 ~lo ~hi

let solve_chunk_i ~forward ~feedback x y ~base ~len =
  let k = Array.length feedback in
  let lo = base + min len k and hi = base + len in
  solve_range_i ~forward ~feedback x y ~base ~lo:base ~hi:lo;
  if lo < hi then solve_tail_i ~forward ~feedback x y ~lo ~hi

module Make (S : Plr_util.Scalar.S) = struct
  module FP = Plr_factors.Factor_plan.Make (S)

  (* CPU chunks are orders of magnitude longer than a GPU block's, so the
     O(m·period) repetition search is bounded; 64 matches the longest 0/1
     period the code generator folds. *)
  let cpu_max_period = 64

  let default_chunk_size = Lookback.default_chunk_size

  let poison =
    match S.kind with
    | Plr_util.Scalar.Floating -> S.of_float Float.nan
    | Plr_util.Scalar.Integer -> S.of_int 0x5EED_BAD

  (* A deterministic wrong value for carry corruption: distinguishable from
     the original for every scalar domain. *)
  let corrupt v = S.add (S.mul v (S.of_int 3)) (S.of_int 41)

  (* The fused local pass: map stage (eq. 2) and local solve in one sweep,
     outputs [lo, hi) of the chunk starting at [base].  The FIR part reads
     the immutable input (including the tail of the previous chunk, so no
     serial whole-array pre-pass is needed) and the feedback part reads
     only this chunk's own output — together exactly [Serial.fir]
     followed by a per-chunk [recurrence_in_place], with the same
     operation order, so results are bit-identical to the reference
     decomposition. *)
  let solve_range ~forward ~feedback x y ~base ~lo ~hi =
    let taps = Array.length forward in
    let k = Array.length feedback in
    for i = lo to hi - 1 do
      let acc = ref S.zero in
      for t = 0 to min i (taps - 1) do
        acc := S.add !acc (S.mul forward.(t) x.(i - t))
      done;
      for j = 1 to min (i - base) k do
        acc := S.add !acc (S.mul feedback.(j - 1) y.(i - j))
      done;
      y.(i) <- !acc
    done

  (* Phase 2's carry algebra on the CPU: promote the local (aggregate)
     carries of a chunk to global (inclusive) carries given the global
     carries of its predecessor.  Carry j is element m-1-j of the chunk,
     so the factors at position m-1-j correct it; every consumed
     predecessor is a full-length chunk (only the last chunk can be
     short, and nothing looks back at it).  The corrections add in the
     same order as the sweep, so a promoted carry is bitwise the
     corrected element. *)
  let combine fp ~k ~m local g_prev =
    Array.init k (fun j ->
        let q = m - 1 - j in
        let acc = ref local.(j) in
        for j' = 0 to k - 1 do
          acc := FP.correct fp ~j:j' ~q ~carry:g_prev.(j') ~acc:!acc
        done;
        !acc)

  (* The k-vector carry of the shared look-back protocol. *)
  module Carry = struct
    type t = S.t array

    let cat = Trace.Multicore
    let run_span = "mc.run"
    let chunk_span = "mc.chunk"
    let lookback_span = "mc.lookback"
    let publish_event = "mc.publish"
    let correct_span = Some "mc.correct"

    let corrupt ~lane v =
      let v = Array.copy v in
      let j = lane mod Array.length v in
      v.(j) <- corrupt v.(j);
      v
  end

  module L = Lookback.Make (Carry)

  (* A caller-supplied precompiled factor plan (the serve layer's plan
     cache) is reusable whenever it was compiled from the same feedback
     under the same [opts] with at least [m] factors per list: factor
     [F_j(q)] corrects output offset [q] regardless of the chunk length,
     and [combine]/[apply_list] never read past index [m - 1].  The
     feedback itself cannot be validated cheaply, so that part of the
     contract is the caller's (the cache keys on the signature); the
     checkable conditions are re-verified here and a mismatch silently
     recompiles instead of corrupting the output. *)
  let resolve_plan ?plan ~opts ~feedback ~m ~k () =
    match plan with
    | Some (fp : FP.t) when fp.FP.order = k && fp.FP.m >= m && fp.FP.opts = opts
      ->
        fp
    | _ -> FP.of_feedback ~opts ~max_period:cpu_max_period ~feedback ~m ()

  let carry_equal =
    let eq = Lookback.scalar_equal S.rep in
    fun u v -> Array.for_all2 eq u v

  (* The chunk operations of one run over its storage's kernels — unboxed
     [Buf.t] for floats, flat [int array] for native ints, boxed
     [S.t array] otherwise: [solve] the fused local pass, [sweep] one
     factor list's correction, [get] an output element.  [poison] writes
     the faulted replay's garbage into the solved chunk before its carries
     are extracted. *)
  let lookback_ops ?(poison = fun ~base:_ ~len:_ -> ()) fp ~k ~m ~solve ~sweep
      ~get =
    let carries ~base ~len =
      Array.init k (fun j ->
          if len - 1 - j >= 0 then get (base + len - 1 - j) else S.zero)
    in
    {
      L.local =
        (fun ~base ~len ->
          solve ~base ~len;
          carries ~base ~len);
      combine = combine fp ~k ~m;
      apply =
        (fun ~base ~len g ->
          for j = 0 to k - 1 do
            sweep fp ~j ~carry:g.(j) ~base ~len
          done);
      equal = carry_equal;
      poison =
        (fun ~base ~len _ ->
          poison ~base ~len;
          carries ~base ~len);
      correct_arg = (if k > 0 then FP.class_code fp 0 else -1);
    }

  (* Storage-agnostic driver: resolve the factor plan once, then run the
     look-back protocol — live on the pool, or the deterministic replay
     under a non-inert [faults] plan (always on a freshly compiled plan).
     An unfaulted single chunk needs neither a plan nor the protocol — the
     fused solve is the whole answer. *)
  let run_kernel ?plan ?window ?poison ?(faults = Faults.none) ~cancel ~opts
      ~pool ~feedback ~n ~m ~k ~solve ~sweep ~get () =
    let unfaulted = Faults.is_none faults in
    if unfaulted && n <= m then begin
      Cancel.check cancel;
      solve ~base:0 ~len:n
    end
    else
      let plan = if unfaulted then plan else None in
      let fp = resolve_plan ?plan ~opts ~feedback ~m ~k () in
      let ops = lookback_ops ?poison fp ~k ~m ~solve ~sweep ~get in
      if unfaulted then L.run ?window ~cancel ~pool ~start:None ops ~n ~m
      else L.run_faulted ~faults ~start:None ops ~n ~m

  let resolve_pool ?pool ?domains () =
    match pool with Some p -> p | None -> Pool.get ?domains ()

  (* No explicit chunk size: shape the run to a supplied plan so its
     factor tables cover every chunk. *)
  let resolve_chunk_size ?chunk_size ?plan ~pool n =
    match (chunk_size, plan) with
    | Some c, _ -> max 1 c
    | None, Some (fp : FP.t) -> max 1 fp.FP.m
    | None, None -> default_chunk_size ~domains:(Pool.size pool) n

  (* Buf-in/Buf-out entry for float scalars, and the unboxed path of
     [run]: the monomorphic kernels are built where matching the
     representation witness has refined [S.t] to [float].  [dst] is
     caller-allocated (and reusable across calls), so a warmed-up run
     performs no per-element allocation. *)
  let run_into ?(opts = Opts.all_on) ?plan ?(cancel = Cancel.none) ?pool
      ?domains ?chunk_size ?window (s : S.t Signature.t) ~(src : Buf.t)
      ~(dst : Buf.t) =
    let n = Buf.length src in
    Buf.check_into "Multicore.run_into" ~src ~dst;
    match S.rep with
    | _ when n = 0 -> ()
    | Plr_util.Scalar.Float_rep rounding ->
        let f32 = rounding = Plr_util.Scalar.Round_f32 in
        let pool = resolve_pool ?pool ?domains () in
        let k = Signature.order s in
        (* Chunks must hold at least k elements so carry positions exist. *)
        let m = max k (min (resolve_chunk_size ?chunk_size ?plan ~pool n) n) in
        let forward = s.Signature.forward and feedback = s.Signature.feedback in
        L.traced ~n ~m @@ fun () ->
        run_kernel ?plan ?window ~cancel ~opts ~pool ~feedback ~n ~m ~k
          ~solve:(solve_chunk_f ~f32 ~forward ~feedback src dst)
          ~sweep:(fun fp ~j ~carry -> FP.apply_list_f fp ~j ~carry dst)
          ~get:(A1.unsafe_get dst : int -> S.t)
          ()
    | _ -> invalid_arg "Multicore.run_into: not a float scalar"

  let run ?(opts = Opts.all_on) ?(faults = Faults.none) ?plan
      ?(cancel = Cancel.none) ?pool ?domains ?chunk_size ?window
      (s : S.t Signature.t) (input : S.t array) : S.t array =
    let n = Array.length input in
    let pool = resolve_pool ?pool ?domains () in
    let chunk_size = resolve_chunk_size ?chunk_size ?plan ~pool n in
    let unfaulted = Faults.is_none faults in
    (* Storage dispatch: floats convert to unboxed Buf storage at this API
       boundary only; native ints run in place on their (already flat)
       arrays; everything else, and the deterministic faulted replay,
       takes the generic boxed kernels (chaos determinism is pinned
       against them).  All paths run the identical schedule and operation
       order, so outputs are bitwise identical. *)
    match S.rep with
    | _ when n = 0 -> [||]
    | Plr_util.Scalar.Float_rep _ when unfaulted ->
        let dst = Buf.create n in
        run_into ~opts ?plan ~cancel ~pool ~chunk_size ?window s
          ~src:(Buf.of_array input) ~dst;
        Buf.to_array dst
    | rep ->
        let k = Signature.order s in
        let m = max k (min chunk_size n) in
        let forward = s.Signature.forward and feedback = s.Signature.feedback in
        L.traced ~n ~m @@ fun () : S.t array ->
        let y = Array.make n S.zero in
        let run =
          run_kernel ?plan ?window ~faults ~cancel ~opts ~pool ~feedback ~n ~m
            ~k
        in
        (match rep with
        | Plr_util.Scalar.Int_rep when unfaulted ->
            run
              ~solve:(solve_chunk_i ~forward ~feedback input y)
              ~sweep:(fun fp ~j ~carry -> FP.apply_list_int fp ~j ~carry y)
              ~get:(Array.unsafe_get y : int -> S.t)
              ()
        | _ ->
            run
              ~poison:(fun ~base ~len ->
                y.(base) <- poison;
                y.(base + len - 1) <- poison)
              ~solve:(fun ~base ~len ->
                solve_range ~forward ~feedback input y ~base ~lo:base
                  ~hi:(base + len))
              ~sweep:(fun fp ~j ~carry -> FP.apply_list fp ~j ~carry y)
              ~get:(Array.get y) ());
        y

  let run_sequential_fallback ?opts ?chunk_size s input =
    let chunk_size =
      Option.value chunk_size
        ~default:(Lookback.fallback_chunk_size (Array.length input))
    in
    run ?opts ~domains:1 ~chunk_size s input
end
