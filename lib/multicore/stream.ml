module Make (S : Plr_util.Scalar.S) = struct
  module M = Multicore.Make (S)
  module Serial = Plr_serial.Serial.Make (S)
  module Pool = Plr_exec.Pool

  type t = {
    signature : S.t Signature.t;
    k : int;
    pool : Pool.t;
    carries : S.t array;             (* carry j = j-th from last output *)
    input_tail : S.t array;          (* last taps-1 inputs, most recent last *)
    mutable pos : int;               (* elements consumed *)
  }

  let create ?pool ?domains (signature : S.t Signature.t) =
    let k = Signature.order signature in
    let taps = Signature.fir_taps signature in
    let pool =
      match pool with Some p -> p | None -> Pool.get ?domains ()
    in
    {
      signature;
      k;
      pool;
      carries = Array.make k S.zero;
      input_tail = Array.make (max 0 (taps - 1)) S.zero;
      pos = 0;
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

  (* The first [max k (taps - 1)] outputs of a piece (fewer if the piece
     is shorter), whose sums reach back into the input tail and the
     carries, written into [y]; answers their count.  Terms before stream
     position 0 are left out, as [Serial.full] leaves them out, so each
     output is [Serial.full]'s sum in [Serial.full]'s order. *)
  let prologue t x y =
    let forward = t.signature.Signature.forward
    and feedback = t.signature.Signature.feedback in
    let nh = Array.length t.input_tail in
    let lo = min (Array.length x) (max t.k nh) in
    for i = 0 to lo - 1 do
      let p = t.pos + i in
      let acc = ref S.zero in
      for d = 0 to min p nh do
        let v = if d <= i then x.(i - d) else t.input_tail.(nh + i - d) in
        acc := S.add !acc (S.mul forward.(d) v)
      done;
      for j = 1 to min p t.k do
        let v = if j <= i then y.(i - j) else t.carries.(j - i - 1) in
        acc := S.add !acc (S.mul feedback.(j - 1) v)
      done;
      y.(i) <- !acc
    done;
    lo

  (* Save the new carry/input-tail state in place (no per-call
     reallocation) and advance the position.  Carries walk downward
     because slot j may read old slot j-n (a smaller index, still
     unwritten on the way down); the input tail walks upward because slot
     h may read old slot h+n. *)
  let commit t x y =
    let n = Array.length x in
    for j = t.k - 1 downto 0 do
      t.carries.(j) <-
        (if n - 1 - j >= 0 then y.(n - 1 - j) else t.carries.(j - n))
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

  (* The serial recurrence continued from the carried state: the
     prologue, then the serial kernel from output [lo] on, where every sum
     has all its terms inside the piece. *)
  let process t (x : S.t array) : S.t array =
    let n = Array.length x in
    let y = Array.make n S.zero in
    let lo = prologue t x y in
    Serial.solve t.signature x y ~base:0 ~lo ~hi:n;
    commit t x y;
    y

  (* Chunk size of an engine-fault step: small pieces still span several
     chunks of the look-back protocol. *)
  let faulted_chunk = 16

  (* The engine step only detects: the pooled engine solves the piece
     from the zero state under the fault plan and is checked whole
     against [Serial.full]; the piece itself is then [process]ed. *)
  let process_faulted t ~seed ~tol x =
    let n = Array.length x in
    if n > 0 then begin
      let chunk_size = faulted_chunk in
      let m = max t.k (min chunk_size n) in
      let faults =
        Plr_gpusim.Faults.random ~seed ~chunks:((n + m - 1) / m)
          ~lanes:(max 1 t.k) ~max_events:3 ()
      in
      Plr_exec.Lookback.verify ~agree:(S.approx_equal ~tol)
        ~expected:(Serial.full t.signature x) (fun () ->
          M.run ~faults ~pool:t.pool ~chunk_size t.signature x)
    end;
    process t x
end
