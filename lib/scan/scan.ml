module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Trace = Plr_trace.Trace
module Buf = Plr_util.Buf
module A1 = Bigarray.Array1

module Lookback = Plr_exec.Lookback
module Recoverable = Plr_exec.Recoverable

exception Fault_detected = Lookback.Fault_detected

let default_window = Lookback.default_window
let default_chunk_size = Lookback.default_chunk_size

(* Monomorphic phase-1 kernel on unboxed float64 storage: the chunk's
   composed affine operator (A, B) — A the ordered product of the a's, B
   the chain from zero, i.e. exactly the chunk's output if the incoming
   carry were zero.  With [f32] every operation is rounded to binary32
   through the [Int32.bits_of_float] round-trip (both externals are
   [@@unboxed] [@@noalloc]), replicating the {!Plr_util.Scalar.F32}
   emulation operation for operation.  The accumulators are float refs,
   which the compiler stores flat, so the loop allocates nothing. *)
let aggregate_f ~f32 (a : Buf.t) (b : Buf.t) ~base ~len =
  let p = ref 1.0 and y = ref 0.0 in
  for i = base to base + len - 1 do
    let ai = A1.unsafe_get a i in
    let pv = ai *. !p in
    p := (if f32 then Int32.float_of_bits (Int32.bits_of_float pv) else pv);
    let m = ai *. !y in
    let m = if f32 then Int32.float_of_bits (Int32.bits_of_float m) else m in
    let v = m +. A1.unsafe_get b i in
    y := (if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
  done;
  (!p, !y)

(* Phase 2 on unboxed storage: recompute the chunk's outputs with the
   plain serial chain from the received carry, so the within-chunk
   operation order is exactly the serial reference's. *)
let chain_f ~f32 (a : Buf.t) (b : Buf.t) (y : Buf.t) ~base ~len ~y0 =
  let prev = ref y0 in
  for i = base to base + len - 1 do
    let m = A1.unsafe_get a i *. !prev in
    let m = if f32 then Int32.float_of_bits (Int32.bits_of_float m) else m in
    let v = m +. A1.unsafe_get b i in
    let v = if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v in
    A1.unsafe_set y i v;
    prev := v
  done

(* [chain_f] on flat [float array] storage (OCaml float arrays are
   already unboxed), returning the final carry — the sparse path's dense
   segments run on the caller's arrays directly. *)
let chain_fa ~f32 (a : float array) (b : float array) (y : float array) ~base
    ~len ~y0 =
  let prev = ref y0 in
  for i = base to base + len - 1 do
    let m = Array.unsafe_get a i *. !prev in
    let m = if f32 then Int32.float_of_bits (Int32.bits_of_float m) else m in
    let v = m +. Array.unsafe_get b i in
    let v = if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v in
    Array.unsafe_set y i v;
    prev := v
  done;
  !prev

(* The same two kernels monomorphized onto flat [int array] storage. *)
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

  let serial_into ?y0 a b ~dst =
    check_lengths "Scan.serial_into" a b;
    check_dst "Scan.serial_into" (Array.length a) dst;
    serial_chain ?y0 ~a ~b dst

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

  let sparse_into ?(y0 = S.zero) ?runs a b ~dst =
    check_lengths "Scan.sparse" a b;
    let n = Array.length a in
    check_dst "Scan.sparse_into" n dst;
    let y = dst in
    if n > 0 then begin
      let runs =
        match runs with
        | Some r when r.Runs.n = n -> r
        | Some r ->
            invalid_arg
              (Printf.sprintf
                 "Scan.sparse: runs plan is for length %d, streams have %d"
                 r.Runs.n n)
        | None -> Runs.build a b
      in
      Trace.instant Trace.Scan "scan.sparse" n (Runs.segments runs);
      (* Segment execution specializes on the representation witness the
         same way the chunked engine dispatches its kernels: the arrays
         refine to flat int/float storage, dense segments run the
         monomorphic chains, and skipped runs are plain blits/fills — the
         per-element functor-closure cost would otherwise eat the O(1)
         win the run-length plan buys. *)
      let exec () : unit =
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
            let prev = ref y0 in
            Array.iter
              (function
                | Runs.Dense { off; len } | Runs.Reset { off; len } ->
                    (* Float resets stay on the real operations: 0*y
                       depends on the sign and finiteness of y. *)
                    prev := chain_fa ~f32 a b y ~base:off ~len ~y0:!prev
                | Runs.Identity { off; len } ->
                    (* Fixpoint fill: the identity step f(v) = 1*v + (+-0)
                       satisfies f(f(v)) = f(v), so after at most two real
                       steps the output repeats bitwise and the rest of the
                       run is a fill (this is what keeps b = +0.0 against a
                       -0.0 state, and every rounding mode, bitwise equal
                       to the serial chain). *)
                    let stop = off + len in
                    let i = ref off in
                    let fixed = ref false in
                    while (not !fixed) && !i < stop do
                      let m = a.(!i) *. !prev in
                      let m =
                        if f32 then
                          Int32.float_of_bits (Int32.bits_of_float m)
                        else m
                      in
                      let v = m +. b.(!i) in
                      let v =
                        if f32 then
                          Int32.float_of_bits (Int32.bits_of_float v)
                        else v
                      in
                      y.(!i) <- v;
                      fixed :=
                        Int64.bits_of_float v = Int64.bits_of_float !prev;
                      prev := v;
                      incr i
                    done;
                    if !i < stop then Array.fill y !i (stop - !i) !prev)
              runs.Runs.segs
        | Plr_util.Scalar.Other_rep ->
            (* No cheap bit view, so no fill is provably bitwise: the
               plan degrades to the plain chain (segment order is the
               element order, so this is exactly the serial chain). *)
            serial_chain ~y0 ~a ~b y
      in
      exec ()
    end

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

  (* ---------------------------------------------------- entry points *)

  let resolve_pool ?pool ?domains () =
    match pool with Some p -> p | None -> Pool.get ?domains ()

  let resolve_m ?chunk_size ~pool n =
    match chunk_size with
    | Some c -> min (max 1 c) n
    | None -> min (default_chunk_size ~domains:(Pool.size pool) n) n

  (* Buf-in/Buf-out entry for float scalars, and the unboxed path of
     [run]: the monomorphic kernels are built where matching the
     representation witness has refined [S.t] to [float].  [dst] is
     caller-allocated (reusable across calls), so a warmed-up run performs
     no per-element allocation. *)
  let run_into ?(cancel = Cancel.none) ?pool ?domains ?chunk_size ?window
      ?(y0 = S.zero) (a : Buf.t) (b : Buf.t) ~(dst : Buf.t) =
    let n = Buf.length a in
    if Buf.length b <> n then
      invalid_arg "Scan.run_into: coefficient streams differ in length";
    if Buf.length dst < n then invalid_arg "Scan.run_into: dst too short";
    match S.rep with
    | _ when n = 0 -> ()
    | Plr_util.Scalar.Float_rep rounding ->
        let f32 = rounding = Plr_util.Scalar.Round_f32 in
        let pool = resolve_pool ?pool ?domains () in
        let m = resolve_m ?chunk_size ~pool n in
        L.traced ~n ~m @@ fun () ->
        run_ops ?window ~cancel ~pool:(Lazy.from_val pool) ~n ~m ~y0
          ~aggregate:(aggregate_f ~f32 a b : base:int -> len:int -> S.t * S.t)
          ~chain:(chain_f ~f32 a b dst : base:int -> len:int -> y0:S.t -> unit)
          ()
    | _ -> invalid_arg "Scan.run_into: not a float scalar"

  let run ?(faults = Faults.none) ?(cancel = Cancel.none) ?pool ?domains
      ?chunk_size ?window ?(y0 = S.zero) (a : S.t array) b : S.t array =
    check_lengths "Scan.run" a b;
    let n = Array.length a in
    if n = 0 then [||]
    else begin
      (* The faulted replay runs sequentially and needs no pool. *)
      let unfaulted = Faults.is_none faults in
      let pool = lazy (resolve_pool ?pool ?domains ()) in
      let m =
        match chunk_size with
        | Some c -> min n (max 1 c)
        | None when unfaulted -> resolve_m ~pool:(Lazy.force pool) n
        | None -> min n (Lookback.fallback_chunk_size n)
      in
      (* Storage dispatch: floats convert to unboxed Buf storage at this
         API boundary only; native ints run in place on their (already
         flat) arrays; everything else, and the faulted replay, takes the
         generic boxed kernels.  All paths run the identical schedule and
         operation order, so outputs are bitwise identical. *)
      match S.rep with
      | Plr_util.Scalar.Float_rep _ when unfaulted ->
          let dst = Buf.create n in
          run_into ~cancel ~pool:(Lazy.force pool) ~chunk_size:m ?window ~y0
            (Buf.of_array a) (Buf.of_array b) ~dst;
          Buf.to_array dst
      | rep ->
          L.traced ~n ~m @@ fun () : S.t array ->
          let y = Array.make n S.zero in
          let run = run_ops ?window ~faults ~cancel ~pool ~n ~m ~y0 in
          (match rep with
          | Plr_util.Scalar.Int_rep when unfaulted ->
              run
                ~aggregate:(aggregate_i a b : base:int -> len:int -> S.t * S.t)
                ~chain:(chain_i a b y : base:int -> len:int -> y0:S.t -> unit)
                ()
          | _ ->
              run
                ~poison_outputs:(fun ~base ~len ->
                  y.(base) <- poison;
                  y.(base + len - 1) <- poison)
                ~aggregate:(aggregate_s ~a ~b) ~chain:(chain_s ~a ~b y) ());
          y
    end

  (* -------------------------------------------------------- streaming *)

  module Stream = struct
    type fault = Recoverable.fault =
      | Crash
      | Corrupt_state
      | Engine_fault of int

    let fault_to_string = Recoverable.fault_to_string

    (* A jump over [steps] inputs: a gap of identity steps ([None]) or a
       fast-forward by a composed operator. *)
    type segment =
      | Data of S.t array * S.t array
      | Jump of (S.t * S.t) option * int

    type stats = {
      position : int;
      checkpoints : int;
      recoveries : int;
      fastforwards : int;
      detected : int;
      replayed : int;
    }

    type state = {
      pool : Pool.t;
      tol : float;
      mutable y : S.t;
      mutable pos : int;
      mutable fastforwards : int;
    }

    (* Exactly the state transition of one data piece, so recovery replay
       goes through this same code and reproduces the state bit-for-bit.
       Clean pieces run the serial chain from the exact carry: bitwise
       identical to the serial reference over the concatenated stream.  A
       faulted piece runs the engine under the injected plan and is
       verified whole before any state commits, so silent divergence is
       structurally impossible on this path. *)
    let process_data ?seed st ~a ~b =
      let n = Array.length a in
      if n = 0 then [||]
      else begin
        let expected = serial ~y0:st.y a b in
        let y =
          match seed with
          | None -> expected
          | Some seed ->
              let m = max 1 (min Recoverable.faulted_chunk n) in
              let faults =
                Faults.random ~seed ~chunks:((n + m - 1) / m) ~lanes:2
                  ~max_events:3 ()
              in
              Lookback.verified ~agree:(S.approx_equal ~tol:st.tol) ~expected
                (fun () ->
                  run ~faults ~pool:st.pool
                    ~chunk_size:Recoverable.faulted_chunk ~y0:st.y a b)
        in
        st.y <- y.(n - 1);
        st.pos <- st.pos + n;
        y
      end

    (* A gap of [n] identity steps: the carry is the fast-forward
       operator's fixpoint, so nothing moves but the position.  A
       fast-forward is one compose: the carry pair is the operator. *)
    let advance st ?op steps =
      Trace.begin_span2 Trace.Scan "scan.session.ff" st.pos steps;
      Option.iter
        (fun (a_prod, b_fold) -> st.y <- S.add (S.mul a_prod st.y) b_fold)
        op;
      st.pos <- st.pos + steps;
      st.fastforwards <- st.fastforwards + 1;
      Trace.end_span ()

    type snapshot = { cp_pos : int; cp_y : S.t; cp_digest : int }

    (* The state is two words, so the digest is simply a hash of the pair
       (rendered, so floats hash by value, not address). *)
    let state_digest ~pos ~y = Hashtbl.hash (pos, S.to_string y)

    module R = Recoverable.Make (struct
      type t = state
      type nonrec snapshot = snapshot
      type nonrec segment = segment

      let position st = st.pos

      let snapshot st =
        let cp_digest = state_digest ~pos:st.pos ~y:st.y in
        { cp_pos = st.pos; cp_y = st.y; cp_digest }

      let digest cp = cp.cp_digest
      let valid cp = state_digest ~pos:cp.cp_pos ~y:cp.cp_y = cp.cp_digest

      let restore st cp =
        st.y <- cp.cp_y;
        st.pos <- cp.cp_pos

      let replay st = function
        | Data (a, b) -> ignore (process_data st ~a ~b : S.t array)
        | Jump (op, steps) -> advance st ?op steps

      let replayed = function Data (a, _) -> Array.length a | Jump _ -> 0

      let crash st =
        st.y <- S.of_int 0x5EED_BAD;
        st.pos <- st.pos + 1 (* a lost position is part of losing memory *)

      let corrupt st = st.y <- corrupt st.y
      let cat = Trace.Scan
      let checkpoint_span = "scan.session.checkpoint"
      let recover_span = "scan.session.recover"
      let name = "Scan.Stream"
    end)

    type t = R.t

    let create ?pool ?domains ?checkpoint_every ?(tol = 1e-3) ?(y0 = S.zero)
        () =
      let pool = match pool with Some p -> p | None -> Pool.get ?domains () in
      R.create ?checkpoint_every
        { pool; tol; y = y0; pos = 0; fastforwards = 0 }

    let position t = (R.state t).pos
    let value t = (R.state t).y

    let stats t =
      let r = R.stats t and st = R.state t in
      {
        position = st.pos;
        checkpoints = r.R.checkpoints;
        recoveries = r.R.recoveries;
        fastforwards = st.fastforwards;
        detected = r.R.detected;
        replayed = r.R.replayed;
      }

    let process ?fault t a b =
      check_lengths "Scan.Stream.process" a b;
      let y =
        R.step t fault (fun seed -> process_data ?seed (R.state t) ~a ~b)
      in
      if Array.length a > 0 then R.commit t (Data (Array.copy a, Array.copy b));
      y

    let jump ?fault ?op t steps =
      R.step t fault ignore;
      if steps > 0 then begin
        advance (R.state t) ?op steps;
        R.commit t (Jump (op, steps))
      end

    let skip ?fault t n =
      if n < 0 then invalid_arg "Scan.Stream.skip: negative gap";
      jump ?fault t n

    let fast_forward ?fault t ~a_prod ~b_fold ~steps =
      if steps < 0 then invalid_arg "Scan.Stream.fast_forward: negative steps";
      jump ?fault ~op:(a_prod, b_fold) t steps
  end
end
