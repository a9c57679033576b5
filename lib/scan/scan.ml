module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Trace = Plr_trace.Trace
module Lookback = Plr_exec.Lookback

exception Fault_detected = Lookback.Fault_detected

let default_window = Lookback.default_window
let default_chunk_size = Lookback.default_chunk_size

(* Binary32 rounding through the [Int32.bits_of_float] round-trip (both
   externals are [@@unboxed] [@@noalloc]), replicating the
   {!Plr_util.Scalar.F32} emulation operation for operation. *)
let[@inline] round f32 v =
  if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v

(* One step [y.(i) := a.(i)*y + b.(i)] of the float chain on flat
   [float array] storage (OCaml float arrays are already unboxed).
   Inlined into every loop below, whose float refs the compiler stores
   flat, so the loops allocate nothing per element.  [a.(i)] is bound
   first so that it stays the product's first operand: with two NaN
   operands the result carries the first one's payload, as in the boxed
   [S.mul a.(i) y]; a load left inline would be folded into the
   multiply as its second operand. *)
let[@inline] step_fa f32 (a : float array) (b : float array) i prev =
  let ai = Array.unsafe_get a i in
  round f32 (round f32 (ai *. prev) +. Array.unsafe_get b i)

(* The serial chain over [base, base+len) from [y0]: [serial_into], the
   dense and reset segments of a sparse plan, and the chunked engine's
   phase 2, which recomputes a chunk's outputs from its received carry
   so that the within-chunk operation order is exactly the serial
   reference's. *)
let chain_fa ~f32 (a : float array) (b : float array) (y : float array)
    ~base ~len ~y0 =
  let prev = ref y0 in
  for i = base to base + len - 1 do
    prev := step_fa f32 a b i !prev;
    Array.unsafe_set y i !prev
  done

(* Phase 1 of the chunked engine: the chunk's composed affine operator
   (A, B), A the ordered product of the a's and B the chain from zero,
   i.e. exactly the chunk's output if the incoming carry were zero.  The
   accumulators are float refs, which the compiler stores flat; only the
   returned pair is boxed, once per chunk. *)
let aggregate_fa ~f32 (a : float array) (b : float array) ~base ~len =
  let p = ref 1.0 and y = ref 0.0 in
  for i = base to base + len - 1 do
    let ai = Array.unsafe_get a i in
    p := round f32 (ai *. !p);
    y := step_fa f32 a b i !y
  done;
  (!p, !y)

let neg_zero_bits = Int64.bits_of_float (-0.0)

(* The identity-fill rule for a plan's float identity run [base, stop).
   An identity step [y := 1*y + b] with [b = +-0.0] maps every output of
   a real step to itself ([1*v] is exact, and so is re-rounding a
   binary32 value), except -0.0, which a [b = +0.0] step turns into
   +0.0.  So the run takes real steps, at least one (the incoming state
   may be a [y0] no step has rounded) and then as long as the state is
   -0.0, and fills the rest with the state.  This is bitwise the serial
   chain for any mix of [b = +0.0] and [b = -0.0] in the run. *)
let identity_run_fa ~f32 (a : float array) (b : float array)
    (y : float array) ~base ~stop ~y0 =
  let prev = ref (step_fa f32 a b base y0) and i = ref (base + 1) in
  Array.unsafe_set y base !prev;
  while !i < stop && Int64.bits_of_float !prev = neg_zero_bits do
    prev := step_fa f32 a b !i !prev;
    Array.unsafe_set y !i !prev;
    incr i
  done;
  Array.fill y !i (stop - !i) !prev

(* The aggregate and chain kernels on flat [int array] storage. *)
let aggregate_i (a : int array) (b : int array) ~base ~len =
  let p = ref 1 and y = ref 0 in
  for i = base to base + len - 1 do
    let ai = Array.unsafe_get a i in
    p := ai * !p;
    y := (ai * !y) + Array.unsafe_get b i
  done;
  (!p, !y)

let chain_i (a : int array) (b : int array) (y : int array) ~base ~len ~y0 =
  let prev = ref y0 in
  for i = base to base + len - 1 do
    let v = (Array.unsafe_get a i * !prev) + Array.unsafe_get b i in
    Array.unsafe_set y i v;
    prev := v
  done

module Make (S : Plr_util.Scalar.S) = struct
  let poison =
    match S.kind with
    | Plr_util.Scalar.Floating -> S.of_float Float.nan
    | Plr_util.Scalar.Integer -> S.of_int 0x5EED_BAD

  (* A deterministic wrong value for carry corruption: distinguishable
     from the original for every scalar domain. *)
  let corrupt v = S.add (S.mul v (S.of_int 3)) (S.of_int 41)

  let check_lengths name (a : S.t array) (b : S.t array) =
    if Array.length a <> Array.length b then
      invalid_arg (name ^ ": coefficient streams differ in length")

  (* ------------------------------------------------- serial reference *)

  let chain_s ~(a : S.t array) ~(b : S.t array) (y : S.t array) ~base ~len
      ~y0 =
    let prev = ref y0 in
    for i = base to base + len - 1 do
      let v = S.add (S.mul a.(i) !prev) b.(i) in
      y.(i) <- v;
      prev := v
    done

  let serial_chain ?(y0 = S.zero) ~a ~b y =
    chain_s ~a ~b y ~base:0 ~len:(Array.length a) ~y0

  let check_dst name n (dst : S.t array) =
    if Array.length dst < n then invalid_arg (name ^ ": dst too short")

  (* The monomorphic chains, dispatched once on the representation
     witness: the same operations in the same order as [serial_chain],
     so the output is bitwise the same. *)
  let serial_into ?(y0 = S.zero) (a : S.t array) (b : S.t array) ~dst : unit =
    check_lengths "Scan.serial_into" a b;
    let n = Array.length a in
    check_dst "Scan.serial_into" n dst;
    match S.rep with
    | Plr_util.Scalar.Int_rep -> chain_i a b dst ~base:0 ~len:n ~y0
    | Plr_util.Scalar.Float_rep r ->
        chain_fa ~f32:(r = Plr_util.Scalar.Round_f32) a b dst ~base:0 ~len:n ~y0
    | Plr_util.Scalar.Other_rep -> serial_chain ~y0 ~a ~b dst

  let serial ?y0 a b =
    check_lengths "Scan.serial" a b;
    let y = Array.make (Array.length a) S.zero in
    serial_chain ?y0 ~a ~b y;
    y

  (* ------------------------------------------- run-length sparse path *)

  module Runs = struct
    type seg =
      | Identity of { off : int; len : int }
      | Reset of { off : int; len : int }
      | Dense of { off : int; len : int }

    type t = { n : int; segs : seg array; identity_elems : int }

    (* Below this length the segment bookkeeping costs more than the
       skipped multiplies. *)
    let min_run = 8

    let classify (a : S.t array) (b : S.t array) j =
      if S.is_zero a.(j) then `Reset
      else if S.is_one a.(j) && S.is_zero b.(j) then `Identity
      else `Dense

    let build (a : S.t array) (b : S.t array) =
      if Array.length a <> Array.length b then
        invalid_arg "Scan.Runs.build: coefficient streams differ in length";
      let n = Array.length a in
      let segs = ref [] and identity_elems = ref 0 in
      let flush_dense off stop =
        if stop > off then segs := Dense { off; len = stop - off } :: !segs
      in
      let dstart = ref 0 in
      let i = ref 0 in
      while !i < n do
        match classify a b !i with
        | `Dense -> incr i
        | (`Identity | `Reset) as c ->
            let j = ref !i in
            while !j < n && classify a b !j = c do incr j done;
            let len = !j - !i in
            if len >= min_run then begin
              flush_dense !dstart !i;
              (segs :=
                 (if c = `Identity then begin
                    identity_elems := !identity_elems + len;
                    Identity { off = !i; len }
                  end
                  else Reset { off = !i; len })
                 :: !segs);
              dstart := !j
            end;
            i := !j
      done;
      flush_dense !dstart n;
      { n; segs = Array.of_list (List.rev !segs); identity_elems = !identity_elems }

    let length t = t.n
    let segments t = Array.length t.segs

    let identity_fraction t =
      if t.n = 0 then 0.0 else float_of_int t.identity_elems /. float_of_int t.n
  end

  (* A caller-supplied plan: segment execution specializes on the
     representation witness the same way the chunked engine dispatches
     its kernels.  Dense segments run the monomorphic chains, int reset
     runs are blits, and identity runs are fills. *)
  let run_plan ~(y0 : S.t) (runs : Runs.t) (a : S.t array) (b : S.t array)
      (y : S.t array) : unit =
    match S.rep with
    | Plr_util.Scalar.Int_rep ->
        let prev = ref y0 in
        Array.iter
          (function
            | Runs.Dense { off; len } ->
                chain_i a b y ~base:off ~len ~y0:!prev;
                prev := y.(off + len - 1)
            | Runs.Reset { off; len } ->
                (* 0*y + b = b exactly in the wrap-around ring. *)
                Array.blit b off y off len;
                prev := y.(off + len - 1)
            | Runs.Identity { off; len } ->
                (* 1*y + 0 = y exactly: the whole run is a fill. *)
                Array.fill y off len !prev)
          runs.Runs.segs
    | Plr_util.Scalar.Float_rep r ->
        let f32 = r = Plr_util.Scalar.Round_f32 in
        let state off = if off = 0 then y0 else y.(off - 1) in
        Array.iter
          (function
            | Runs.Dense { off; len } | Runs.Reset { off; len } ->
                (* Float resets stay on the real operations: 0*y
                   depends on the sign and finiteness of y. *)
                chain_fa ~f32 a b y ~base:off ~len ~y0:(state off)
            | Runs.Identity { off; len } ->
                identity_run_fa ~f32 a b y ~base:off ~stop:(off + len)
                  ~y0:(state off))
          runs.Runs.segs
    | Plr_util.Scalar.Other_rep ->
        (* No cheap bit view, so no fill is provably bitwise: the plan
           degrades to the plain chain (segment order is the element
           order, so this is exactly the serial chain). *)
        serial_chain ~y0 ~a ~b y

  let sparse_into ?(y0 = S.zero) ?runs (a : S.t array) (b : S.t array) ~dst :
      unit =
    check_lengths "Scan.sparse" a b;
    let n = Array.length a in
    check_dst "Scan.sparse_into" n dst;
    if n > 0 then
      match runs with
      | Some r when r.Runs.n = n ->
          Trace.instant Trace.Scan "scan.sparse" n (Runs.segments r);
          run_plan ~y0 r a b dst
      | Some r ->
          invalid_arg
            (Printf.sprintf
               "Scan.sparse: runs plan is for length %d, streams have %d"
               r.Runs.n n)
      | None ->
          (* No plan: the monomorphic chain, which a plan built for one
             call cannot beat. *)
          Trace.instant Trace.Scan "scan.sparse" n 0;
          serial_into ~y0 a b ~dst

  let sparse ?y0 ?runs a b =
    check_lengths "Scan.sparse" a b;
    let y = Array.make (Array.length a) S.zero in
    sparse_into ?y0 ?runs a b ~dst:y;
    y

  (* -------------------------------------------- two-phase chunked run *)

  (* The (a, b) operator-pair carry of the shared look-back protocol:
     the local carry is the chunk's aggregate (A, B), the fold starts from
     the pair (1, y0), and applying an exclusive carry recomputes the
     chunk's outputs with the serial chain from its y component, so the
     within-chunk operation order is exactly the serial reference's. *)
  module Carry = struct
    type t = S.t * S.t

    let cat = Trace.Scan
    let run_span = "scan.run"
    let chunk_span = "scan.chunk"
    let lookback_span = "scan.lookback"
    let publish_event = "scan.publish"
    let correct_span = None

    let corrupt ~lane (p, y) =
      if lane land 1 = 0 then (corrupt p, y) else (p, corrupt y)
  end

  module L = Lookback.Make (Carry)

  let scalar_equal = Lookback.scalar_equal S.rep

  (* The chunk operations of one run over its storage's [aggregate] and
     [chain] kernels.  A poisoned chunk (faulted replay only) publishes a
     poisoned aggregate, and [poison_outputs] writes the garbage into its
     own outputs after the chain recomputes them — the replay runs each
     chunk's task without interleaving, so the mark set by [poison] is the
     next [apply]'s. *)
  let lookback_ops ?(poison_outputs = fun ~base:_ ~len:_ -> ()) ~aggregate
      ~chain () =
    let poisoned = ref (-1) in
    {
      L.local = aggregate;
      combine = (fun (pa, pb) (p, y) -> (S.mul pa p, S.add (S.mul pa y) pb));
      apply =
        (fun ~base ~len (_, y0) ->
          chain ~base ~len ~y0;
          if !poisoned = base then poison_outputs ~base ~len);
      equal = (fun (p, y) (p', y') -> scalar_equal p p' && scalar_equal y y');
      poison =
        (fun ~base ~len:_ (pa, _) ->
          poisoned := base;
          (pa, poison));
      correct_arg = 0;
    }

  (* The generic boxed kernels. *)
  let aggregate_s ~(a : S.t array) ~(b : S.t array) ~base ~len =
    let p = ref S.one and acc = ref S.zero in
    for i = base to base + len - 1 do
      p := S.mul a.(i) !p;
      acc := S.add (S.mul a.(i) !acc) b.(i)
    done;
    (!p, !acc)

  (* The look-back protocol live on the pool, or the deterministic replay
     under a non-inert [faults] plan.  An unfaulted single chunk needs no
     protocol: the chain is the whole answer. *)
  let run_ops ?window ?poison_outputs ?(faults = Faults.none) ~cancel ~pool ~n
      ~m ~y0 ~aggregate ~chain () =
    let ops = lookback_ops ?poison_outputs ~aggregate ~chain () in
    if not (Faults.is_none faults) then
      L.run_faulted ~faults ~start:(Some (S.one, y0)) ops ~n ~m
    else if n <= m then begin
      Cancel.check cancel;
      chain ~base:0 ~len:n ~y0
    end
    else
      L.run ?window ~cancel ~pool:(Lazy.force pool) ~start:(Some (S.one, y0))
        ops ~n ~m

  (* ---------------------------------------------------- entry point *)

  let run ?(faults = Faults.none) ?(cancel = Cancel.none) ?pool ?domains
      ?chunk_size ?window ?(y0 = S.zero) (a : S.t array) b : S.t array =
    check_lengths "Scan.run" a b;
    let n = Array.length a in
    if n = 0 then [||]
    else begin
      (* The faulted replay runs sequentially and needs no pool. *)
      let unfaulted = Faults.is_none faults in
      let pool =
        lazy (match pool with Some p -> p | None -> Pool.get ?domains ())
      in
      let m =
        match chunk_size with
        | Some c -> min n (max 1 c)
        | None when unfaulted ->
            min n (default_chunk_size ~domains:(Pool.size (Lazy.force pool)) n)
        | None -> min n (Lookback.fallback_chunk_size n)
      in
      (* Storage dispatch: native ints and floats run their monomorphic
         kernels on the caller's (already flat) arrays; everything else,
         and the faulted replay, takes the generic boxed kernels.  All
         paths run the identical schedule and operation order, so outputs
         are bitwise identical. *)
      L.traced ~n ~m @@ fun () : S.t array ->
      let y = Array.make n S.zero in
      let run = run_ops ?window ~faults ~cancel ~pool ~n ~m ~y0 in
      (match S.rep with
      | Plr_util.Scalar.Int_rep when unfaulted ->
          run
            ~aggregate:(aggregate_i a b : base:int -> len:int -> S.t * S.t)
            ~chain:(chain_i a b y : base:int -> len:int -> y0:S.t -> unit)
            ()
      | Plr_util.Scalar.Float_rep r when unfaulted ->
          let f32 = r = Plr_util.Scalar.Round_f32 in
          run
            ~aggregate:
              (aggregate_fa ~f32 a b : base:int -> len:int -> S.t * S.t)
            ~chain:
              (chain_fa ~f32 a b y : base:int -> len:int -> y0:S.t -> unit)
            ()
      | _ ->
          run
            ~poison_outputs:(fun ~base ~len ->
              y.(base) <- poison;
              y.(base + len - 1) <- poison)
            ~aggregate:(aggregate_s ~a ~b) ~chain:(chain_s ~a ~b y) ());
      y
    end
end
