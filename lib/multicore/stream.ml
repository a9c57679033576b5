module Buf = Plr_util.Buf

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
    (* Unboxed staging for the float kernels, grown geometrically and
       reused across [process] calls: a piece's input and its output.
       Length 0 until the first float piece. *)
    mutable fbuf_in : Buf.t;
    mutable fbuf_out : Buf.t;
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

  let ensure_fbufs t n =
    if Buf.length t.fbuf_in < n then begin
      let cap = max n (2 * max 1 (Buf.length t.fbuf_in)) in
      t.fbuf_in <- Buf.create cap;
      t.fbuf_out <- Buf.create cap
    end

  (* The first [max k (taps - 1)] outputs of a piece (fewer if the piece
     is shorter), whose sums reach back into the input tail and the
     carries.  Terms before stream position 0 are left out, as
     [Serial.full] leaves them out, so each output is [Serial.full]'s sum
     in [Serial.full]'s order. *)
  let prologue t x =
    let forward = t.signature.Signature.forward
    and feedback = t.signature.Signature.feedback in
    let nh = Array.length t.input_tail in
    let y = Array.make (min (Array.length x) (max t.k nh)) S.zero in
    for i = 0 to Array.length y - 1 do
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
    y

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
     prologue, then the storage's kernel from output [lo] on, where every
     sum has all its terms inside the piece.  Floats stage through the
     reused unboxed buffers; ints and the boxed scalars write the
     returned array directly. *)
  let process t (x : S.t array) : S.t array =
    let n = Array.length x in
    let head = prologue t x in
    let lo = Array.length head in
    let forward = t.signature.Signature.forward
    and feedback = t.signature.Signature.feedback in
    let y =
      match S.rep with
      | _ when lo = n -> head
      | rep ->
          let y = Array.make n S.zero in
          Array.blit head 0 y 0 lo;
          (match rep with
          | Plr_util.Scalar.Float_rep rounding ->
              ensure_fbufs t n;
              Buf.blit_from_array x t.fbuf_in;
              Buf.blit_from_array head t.fbuf_out;
              Multicore.solve_tail_f
                ~f32:(rounding = Plr_util.Scalar.Round_f32)
                ~forward ~feedback t.fbuf_in t.fbuf_out ~lo ~hi:n;
              Buf.blit_to_array t.fbuf_out y
          | Plr_util.Scalar.Int_rep ->
              Multicore.solve_tail_i ~forward ~feedback x y ~lo ~hi:n
          | Plr_util.Scalar.Other_rep ->
              M.solve_range ~forward ~feedback x y ~base:0 ~lo ~hi:n);
          y
    in
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
