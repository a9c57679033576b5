module Buf = Plr_util.Buf
module A1 = Bigarray.Array1

module Make (S : Plr_util.Scalar.S) = struct
  module Multicore = Multicore.Make (S)
  module FP = Plr_factors.Factor_plan.Make (S)
  module Serial = Plr_serial.Serial.Make (S)
  module Pool = Plr_exec.Pool
  module Lookback = Plr_exec.Lookback

  type t = {
    signature : S.t Signature.t;
    map : S.t Signature.t;           (* (forward : ), the FIR stage *)
    pure : S.t Signature.t;          (* (1 : feedback) for the local solves *)
    identity_map : bool;             (* the FIR stage is (1 : ) *)
    k : int;
    pool : Pool.t;
    opts : Plr_factors.Opts.t;
    carries : S.t array;             (* carry j = j-th from last output *)
    input_tail : S.t array;          (* last taps-1 inputs, most recent last *)
    mutable pos : int;               (* elements consumed *)
    mutable fplan : FP.t option;     (* compiled factor plan, grown on demand *)
    (* Unboxed scratch for the float path, grown geometrically and reused
       across [process] calls: FIR output (the multicore solve's input)
       and the corrected chunk output.  Length 0 for non-float scalars. *)
    mutable fbuf_in : Buf.t;
    mutable fbuf_out : Buf.t;
  }

  let create ?pool ?domains ?(opts = Plr_factors.Opts.all_on)
      (signature : S.t Signature.t) =
    let k = Signature.order signature in
    let taps = Signature.fir_taps signature in
    let map, pure = Signature.split ~one:S.one signature in
    let pool =
      match pool with Some p -> p | None -> Pool.get ?domains ()
    in
    {
      signature;
      map;
      pure;
      identity_map = taps = 1 && S.is_one signature.Signature.forward.(0);
      k;
      pool;
      opts;
      carries = Array.make k S.zero;
      input_tail = Array.make (max 0 (taps - 1)) S.zero;
      pos = 0;
      fplan = None;
      fbuf_in = Buf.create 0;
      fbuf_out = Buf.create 0;
    }

  let signature t = t.signature
  let position t = t.pos
  let carries t = Array.copy t.carries
  let input_tail t = Array.copy t.input_tail

  let restore t ~pos ~carries ~input_tail =
    if
      Array.length carries <> t.k
      || Array.length input_tail <> Array.length t.input_tail
    then invalid_arg "Stream.restore: state shape does not match the signature";
    Array.blit carries 0 t.carries 0 t.k;
    Array.blit input_tail 0 t.input_tail 0 (Array.length input_tail);
    t.pos <- pos

  let reset t =
    restore t ~pos:0 ~carries:(Array.make t.k S.zero)
      ~input_tail:(Array.make (Array.length t.input_tail) S.zero)

  (* Grow the factor plan geometrically; the grown plan is shared by the
     local solves and the boundary sweep. *)
  let ensure_plan t len =
    let have = match t.fplan with None -> 0 | Some fp -> fp.FP.m in
    if len > have then
      t.fplan <-
        Some
          (FP.of_feedback ~opts:t.opts ~max_period:64
             ~feedback:t.signature.Signature.feedback
             ~m:(max len (2 * max 1 have)) ())

  let ensure_fbufs t n =
    if Buf.length t.fbuf_in < n then begin
      let cap = max n (2 * max 1 (Buf.length t.fbuf_in)) in
      t.fbuf_in <- Buf.create cap;
      t.fbuf_out <- Buf.create cap
    end

  (* The map stage (eq. 2) run serially over [history ++ x]: the saved
     input tail stands in for x(i < 0 of this piece), and the outputs at
     the history positions are dropped. *)
  let fir t x =
    if t.identity_map then x
    else
      let nh = Array.length t.input_tail in
      Array.sub
        (Serial.fir ~forward:t.map.Signature.forward
           (Array.append t.input_tail x))
        nh (Array.length x)

  (* Below this length the boundary sweep is cheaper than waking the
     pool. *)
  let parallel_sweep_threshold = 8192

  (* The local solve's chunk size.  The piece at position 0 (no carries to
     correct) is one chunk below the threshold: solving it sequentially
     costs less than compiling a plan and waking the pool.  The choice
     reads only the position, which snapshots restore, never the plan
     cache, so a restored or migrated stream chunks every replayed piece
     exactly as the original run did — float outputs depend on the chunk
     boundaries. *)
  let local_chunk t n =
    if t.pos = 0 && n < parallel_sweep_threshold then n
    else begin
      ensure_plan t n;
      Multicore.default_chunk_size ~domains:(Pool.size t.pool) n
    end

  (* The boundary-correction sweep: one specialized whole-list sweep per
     factor list, with the carries saved from the previous chunk (none
     before the first).  Factor positions are absolute chunk positions,
     so a range split passes its offset as [q0]; each range sums the
     lists in the same order, keeping the output bit-identical to the
     serial sweep.  [apply] is the storage's [apply_list]. *)
  let correct_boundary t ~n apply =
    if t.pos > 0 then begin
      ensure_plan t n;
      let fp = Option.get t.fplan in
      let sweep ~lo ~len =
        for j = 0 to t.k - 1 do
          apply ~q0:lo fp ~j ~carry:t.carries.(j) ~base:lo ~len
        done
      in
      let parts =
        if n < parallel_sweep_threshold then 1
        else min (Pool.size t.pool) (n / (parallel_sweep_threshold / 2))
      in
      if parts <= 1 then sweep ~lo:0 ~len:n
      else begin
        let per = (n + parts - 1) / parts in
        Pool.run t.pool ~tasks:parts (fun p ->
            let lo = p * per in
            let len = min per (n - lo) in
            if len > 0 then sweep ~lo ~len)
      end
    end

  (* Save the new carry/input-tail state in place (no per-call
     reallocation) and advance the position.  Carries walk downward
     because slot j may read old slot j-n (a smaller index, still
     unwritten on the way down); the input tail walks upward because slot
     h may read old slot h+n. *)
  let commit t x ~n read_out =
    for j = t.k - 1 downto 0 do
      t.carries.(j) <-
        (if n - 1 - j >= 0 then read_out (n - 1 - j) else t.carries.(j - n))
    done;
    let tail = t.input_tail in
    let nh = Array.length tail in
    for h = 0 to nh - 1 do
      let back = nh - 1 - h in
      tail.(h) <-
        (if n - 1 - back >= 0 then x.(n - 1 - back)
         else tail.(nh - 1 - (back - n)))
    done;
    t.pos <- t.pos + n

  (* The boxed path: FIR with the input history, [solve] the pure
     recurrence locally, then correct and commit. *)
  let process_boxed t x solve =
    let n = Array.length x in
    if n = 0 then [||]
    else begin
      let y = solve (fir t x) ~n in
      correct_boundary t ~n (fun ~q0 fp ~j ~carry ~base ~len ->
          FP.apply_list ~q0 fp ~j ~carry y ~base ~len);
      commit t x ~n (fun i -> y.(i));
      y
    end

  (* Floats take the unboxed path: FIR into the reused [fbuf_in] scratch,
     solve into [fbuf_out] through [Multicore.run_into] (no boxed
     conversion), sweep the boundary correction directly on the output
     buffer.  The FIR runs [Serial.full_into] over [history ++ x], staged
     in [fbuf_out] (free until the solve).  Only the returned chunk is a
     fresh boxed array — the caller owns it. *)
  let process t (x : S.t array) : S.t array =
    let n = Array.length x in
    match S.rep with
    | Plr_util.Scalar.Float_rep _ when n > 0 ->
        let nh = Array.length t.input_tail in
        ensure_fbufs t (nh + n);
        let src = Buf.sub t.fbuf_in ~pos:nh ~len:n in
        let dst = Buf.sub t.fbuf_out ~pos:0 ~len:n in
        if t.identity_map then Buf.blit_from_array x src
        else begin
          let staged = Buf.sub t.fbuf_out ~pos:0 ~len:(nh + n) in
          Buf.blit_from_array t.input_tail staged;
          Buf.blit_from_array x (Buf.sub staged ~pos:nh ~len:n);
          Serial.full_into t.map ~src:staged
            ~dst:(Buf.sub t.fbuf_in ~pos:0 ~len:(nh + n))
        end;
        let chunk_size = local_chunk t n in
        Multicore.run_into ~opts:t.opts ?plan:t.fplan ~pool:t.pool ~chunk_size
          t.pure ~src ~dst;
        correct_boundary t ~n (fun ~q0 fp ~j ~carry ~base ~len ->
            FP.apply_list_f ~q0 fp ~j ~carry dst ~base ~len);
        commit t x ~n (fun i -> A1.unsafe_get dst i);
        Buf.to_array dst
    | _ ->
        process_boxed t x (fun tseq ~n ->
            let chunk_size = local_chunk t n in
            Multicore.run ~opts:t.opts ?plan:t.fplan ~pool:t.pool ~chunk_size
              t.pure tseq)

  (* The faulted step: solve the pure recurrence under the seeded fault
     plan and verify the whole chunk before anything is committed. *)
  let process_faulted t ~seed ~tol x =
    process_boxed t x (fun tseq ~n ->
        let m = max t.k (min Plr_exec.Recoverable.faulted_chunk n) in
        let faults =
          Plr_gpusim.Faults.random ~seed ~chunks:((n + m - 1) / m)
            ~lanes:(max 1 t.k) ~max_events:3 ()
        in
        Lookback.verified ~agree:(S.approx_equal ~tol)
          ~expected:(Serial.full t.pure tseq) (fun () ->
            Multicore.run ~opts:t.opts ~faults ~pool:t.pool
              ~chunk_size:Plr_exec.Recoverable.faulted_chunk t.pure tseq))
end
