module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Trace = Plr_trace.Trace

module Lookback = Plr_exec.Lookback

exception Fault_detected = Lookback.Fault_detected

module Opts = Plr_factors.Opts

let faulted_lookback_window = Lookback.faulted_lookback_window

(* CPU chunks are orders of magnitude longer than a GPU block's, so the
   O(m·period) repetition search is bounded; 64 matches the longest 0/1
   period the code generator folds. *)
let cpu_max_period = 64

module Make (S : Plr_util.Scalar.S) = struct
  module FP = Plr_factors.Factor_plan.Make (S)
  module Serial = Plr_serial.Serial.Make (S)

  let default_chunk_size = Lookback.default_chunk_size

  let poison =
    match S.kind with
    | Plr_util.Scalar.Floating -> S.of_float Float.nan
    | Plr_util.Scalar.Integer -> S.of_int 0x5EED_BAD

  (* A deterministic wrong value for carry corruption: distinguishable from
     the original for every scalar domain. *)
  let corrupt v = S.add (S.mul v (S.of_int 3)) (S.of_int 41)

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

  (* The chunk operations of one run: [solve] the fused local pass,
     [sweep] one factor list's correction, [get] an output element.
     [poison] writes the faulted replay's garbage into the solved chunk
     before its carries are extracted. *)
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

  let resolve_pool ?pool ?domains () =
    match pool with Some p -> p | None -> Pool.get ?domains ()

  (* The chunk size of a run: with no explicit one, the supplied plan's,
     so its factor tables cover every chunk; then at least k elements, so
     carry positions exist, and at most n. *)
  let chunk_of ?chunk_size ?plan ~pool ~k n =
    let c =
      match (chunk_size, plan) with
      | Some c, _ -> max 1 c
      | None, Some (fp : FP.t) -> max 1 fp.FP.m
      | None, None -> default_chunk_size ~domains:(Pool.size pool) n
    in
    max k (min c n)

  (* One run over its chunk operations: resolve the pool, the
     chunk size and the factor plan once, then run the look-back protocol
     — live on the pool, or the deterministic replay under a non-inert
     [faults] plan (always on a freshly compiled plan).  An unfaulted
     single chunk needs neither a plan nor the protocol — the fused solve
     is the whole answer. *)
  let run_kernel ?plan ?window ?poison ?(faults = Faults.none) ?pool ?domains
      ?chunk_size ~cancel ~opts (s : S.t Signature.t) ~n ~solve ~sweep ~get =
    if n > 0 then begin
      let pool = resolve_pool ?pool ?domains () in
      let k = Signature.order s in
      let m = chunk_of ?chunk_size ?plan ~pool ~k n in
      let unfaulted = Faults.is_none faults in
      L.traced ~n ~m @@ fun () ->
      if unfaulted && n <= m then begin
        Cancel.check cancel;
        solve ~base:0 ~len:n
      end
      else
        let plan = if unfaulted then plan else None in
        let fp =
          resolve_plan ?plan ~opts ~feedback:s.Signature.feedback ~m ~k ()
        in
        let ops = lookback_ops ?poison fp ~k ~m ~solve ~sweep ~get in
        if unfaulted then L.run ?window ~cancel ~pool ~start:None ops ~n ~m
        else L.run_faulted ~faults ~start:None ops ~n ~m
    end

  (* The unfaulted correction sweep over [y], chosen once from [S.rep]:
     the monomorphic sweep on a flat [float array] or [int array], the
     boxed one otherwise. *)
  let sweep_of (y : S.t array) =
    match S.rep with
    | Plr_util.Scalar.Float_rep _ ->
        fun fp ~j ~carry -> FP.apply_list_f fp ~j ~carry y
    | Plr_util.Scalar.Int_rep ->
        fun fp ~j ~carry -> FP.apply_list_int fp ~j ~carry y
    | Plr_util.Scalar.Other_rep ->
        fun fp ~j ~carry -> FP.apply_list fp ~j ~carry y

  let run_into ?(opts = Opts.all_on) ?plan ?(cancel = Cancel.none) ?pool
      ?domains ?chunk_size ?window s ~(src : S.t array) ~(dst : S.t array) =
    Plr_serial.Serial.check_into "Multicore.run_into" ~src ~dst;
    run_kernel ?plan ?window ?pool ?domains ?chunk_size ~cancel ~opts s
      ~n:(Array.length src)
      ~solve:(fun ~base ~len ->
        Serial.solve s src dst ~base ~lo:base ~hi:(base + len))
      ~sweep:(sweep_of dst) ~get:(Array.unsafe_get dst)

  (* Unfaulted, [run] is [run_into] on a fresh output.  A non-inert
     [faults] plan runs the deterministic replay on the boxed solve and
     sweep, to which chaos determinism is pinned; they perform the same
     operations in the same order, so the outputs agree bitwise. *)
  let run ?(opts = Opts.all_on) ?(faults = Faults.none) ?plan
      ?(cancel = Cancel.none) ?pool ?domains ?chunk_size ?window
      (s : S.t Signature.t) (input : S.t array) : S.t array =
    let y = Array.make (Array.length input) S.zero in
    (if Faults.is_none faults then
       run_into ~opts ?plan ~cancel ?pool ?domains ?chunk_size ?window s
         ~src:input ~dst:y
     else
       let forward = s.Signature.forward and feedback = s.Signature.feedback in
       run_kernel ?plan ?window ~faults ?pool ?domains ?chunk_size ~cancel ~opts
         s ~n:(Array.length input)
         ~poison:(fun ~base ~len ->
           y.(base) <- poison;
           y.(base + len - 1) <- poison)
         ~solve:(fun ~base ~len ->
           Serial.solve_boxed ~forward ~feedback input y ~base ~lo:base
             ~hi:(base + len))
         ~sweep:(fun fp ~j ~carry -> FP.apply_list fp ~j ~carry y)
         ~get:(Array.get y));
    y

  let run_sequential_fallback ?opts ?chunk_size s input =
    let chunk_size =
      Option.value chunk_size
        ~default:(Lookback.fallback_chunk_size (Array.length input))
    in
    run ?opts ~domains:1 ~chunk_size s input
end
