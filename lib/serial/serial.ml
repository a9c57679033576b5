(* The CPU kernel layer: the fused solve on flat arrays, monomorphic per
   storage.  The FIR part reads the immutable input (including, in a
   chunk, the tail of the previous chunk) and the feedback part reads the
   outputs from [base] on, with [Make.full]'s per-element operation order
   [((0 + a0·x(i)) + a1·x(i-1) ...) + b1·y(i-1) + b2·y(i-2) ...].  The
   first k outputs after [base] see fewer than k predecessors and take the
   order-generic [solve_range_*] loop; the rest take a kernel specialized
   on the order that keeps the accumulator and the last k outputs in
   locals, so each output is stored once and never reloaded.  Float
   orders above 3 and int orders above 2 stay on the generic loop. *)

(* Binary32 rounding through the call's own {!Plr_util.F32.cell}: a
   store and a load the compiler emits inline, bitwise the
   [Int32.bits_of_float] round trip of {!Plr_util.Scalar.F32}. *)
let[@inline] round f32 (cell : Plr_util.F32.cell) v =
  if f32 then begin
    Bigarray.Array1.unsafe_set cell 0 v;
    Bigarray.Array1.unsafe_get cell 0
  end
  else v

(* Outputs [lo, hi) of the chunk starting at [base], for any order k. *)
let solve_range_f ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : float array) (y : float array) ~base ~lo ~hi =
  let taps = Array.length forward in
  let k = Array.length feedback in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. Array.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let d = i - base in
    let jmax = if d < k then d else k in
    for j = 1 to jmax do
      let p = Array.unsafe_get feedback (j - 1) *. Array.unsafe_get y (i - j) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    Array.unsafe_set y i !acc
  done

(* Orders 1–3, outputs [lo, hi) with [lo - k] still inside the chunk:
   the last k outputs ride in [y1 .. y3].  The FIR loop is written out in
   each kernel — a float-returning helper the compiler cannot inline
   would box its result once per element.  The coefficients are read
   into locals: a product with a boxed operand would be emitted as
   [y1 · b1], and of two NaN operands x86 returns the first, so only
   [b1 · y1] keeps the boxed evaluator's NaN payloads. *)
let solve_f1 ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : float array) (y : float array) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 in
  let y1 = ref (Array.unsafe_get y (lo - 1)) in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. Array.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let v = round f32 cell (!acc +. round f32 cell (b1 *. !y1)) in
    Array.unsafe_set y i v;
    y1 := v
  done

let solve_f2 ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : float array) (y : float array) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 and b2 = Array.unsafe_get feedback 1 in
  let y1 = ref (Array.unsafe_get y (lo - 1)) in
  let y2 = ref (Array.unsafe_get y (lo - 2)) in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. Array.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let v = round f32 cell (!acc +. round f32 cell (b1 *. !y1)) in
    let v = round f32 cell (v +. round f32 cell (b2 *. !y2)) in
    Array.unsafe_set y i v;
    y2 := !y1;
    y1 := v
  done

let solve_f3 ~f32 cell ~(forward : float array) ~(feedback : float array)
    (x : float array) (y : float array) ~lo ~hi =
  let taps = Array.length forward in
  let b1 = Array.unsafe_get feedback 0 and b2 = Array.unsafe_get feedback 1 in
  let b3 = Array.unsafe_get feedback 2 in
  let y1 = ref (Array.unsafe_get y (lo - 1)) in
  let y2 = ref (Array.unsafe_get y (lo - 2)) in
  let y3 = ref (Array.unsafe_get y (lo - 3)) in
  for i = lo to hi - 1 do
    let acc = ref 0.0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. Array.unsafe_get x (i - t) in
      acc := round f32 cell (!acc +. round f32 cell p)
    done;
    let v = round f32 cell (!acc +. round f32 cell (b1 *. !y1)) in
    let v = round f32 cell (v +. round f32 cell (b2 *. !y2)) in
    let v = round f32 cell (v +. round f32 cell (b3 *. !y3)) in
    Array.unsafe_set y i v;
    y3 := !y2;
    y2 := !y1;
    y1 := v
  done

(* Outputs [lo, hi) of the chunk starting at [base]: the generic loop
   while fewer than k outputs of the chunk precede, then the kernel for
   the order, or the generic loop, which then sums all k feedback
   terms. *)
let solve_f ~f32 ~forward ~feedback x y ~base ~lo ~hi =
  let cell = Plr_util.F32.cell () in
  let k = Array.length feedback in
  let mid = max lo (min hi (base + k)) in
  solve_range_f ~f32 cell ~forward ~feedback x y ~base ~lo ~hi:mid;
  if mid < hi then
    match k with
    | 1 -> solve_f1 ~f32 cell ~forward ~feedback x y ~lo:mid ~hi
    | 2 -> solve_f2 ~f32 cell ~forward ~feedback x y ~lo:mid ~hi
    | 3 -> solve_f3 ~f32 cell ~forward ~feedback x y ~lo:mid ~hi
    | _ -> solve_range_f ~f32 cell ~forward ~feedback x y ~base ~lo:mid ~hi

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

let solve_i ~forward ~feedback x y ~base ~lo ~hi =
  let k = Array.length feedback in
  let mid = max lo (min hi (base + k)) in
  solve_range_i ~forward ~feedback x y ~base ~lo ~hi:mid;
  if mid < hi then
    match k with
    | 1 -> solve_i1 ~forward ~feedback x y ~lo:mid ~hi
    | 2 -> solve_i2 ~forward ~feedback x y ~lo:mid ~hi
    | _ -> solve_range_i ~forward ~feedback x y ~base ~lo:mid ~hi

let check_into what ~src ~dst =
  if Array.length dst < Array.length src then invalid_arg (what ^ ": dst too short");
  (* OCaml shares one empty array, so two fresh empty arrays are [==]. *)
  if src == dst && Array.length src > 0 then invalid_arg (what ^ ": dst is src")

module Make (S : Plr_util.Scalar.S) = struct
  let recurrence_in_place ~feedback y =
    let n = Array.length y in
    let k = Array.length feedback in
    for i = 0 to n - 1 do
      let acc = ref y.(i) in
      for j = 1 to min i k do
        acc := S.add !acc (S.mul feedback.(j - 1) y.(i - j))
      done;
      y.(i) <- !acc
    done

  let recurrence ~feedback t =
    let y = Array.copy t in
    recurrence_in_place ~feedback y;
    y

  let fir ~forward x =
    let n = Array.length x in
    let p = Array.length forward in
    Array.init n (fun i ->
        let acc = ref S.zero in
        for j = 0 to min i (p - 1) do
          acc := S.add !acc (S.mul forward.(j) x.(i - j))
        done;
        !acc)

  let full (s : S.t Signature.t) x = recurrence ~feedback:s.feedback (fir ~forward:s.forward x)

  (* The fused solve over boxed values, for scalars with no flat kernel
     and for the faulted replay: [fir] followed by a per-chunk
     [recurrence_in_place], with the same operation order, so results
     are bitwise the reference decomposition. *)
  let solve_boxed ~forward ~feedback x y ~base ~lo ~hi =
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

  let solve (s : S.t Signature.t) (x : S.t array) (y : S.t array) ~base ~lo ~hi
      =
    let forward = s.Signature.forward and feedback = s.Signature.feedback in
    match S.rep with
    | Plr_util.Scalar.Float_rep rounding ->
        solve_f ~f32:(rounding = Plr_util.Scalar.Round_f32) ~forward ~feedback x y
          ~base ~lo ~hi
    | Plr_util.Scalar.Int_rep -> solve_i ~forward ~feedback x y ~base ~lo ~hi
    | Plr_util.Scalar.Other_rep -> solve_boxed ~forward ~feedback x y ~base ~lo ~hi

  let full_into s ~src ~dst =
    check_into "Serial.full_into" ~src ~dst;
    solve s src dst ~base:0 ~lo:0 ~hi:(Array.length src)

  let validate ?(tol = 1e-3) ~expected actual =
    let n = Array.length expected in
    if Array.length actual <> n then
      Error
        (Printf.sprintf "length mismatch: expected %d, got %d" n (Array.length actual))
    else begin
      let rec loop i =
        if i >= n then Ok ()
        else if S.approx_equal ~tol expected.(i) actual.(i) then loop (i + 1)
        else
          Error
            (Printf.sprintf "mismatch at index %d: expected %s, got %s" i
               (S.to_string expected.(i))
               (S.to_string actual.(i)))
      in
      loop 0
    end
end
