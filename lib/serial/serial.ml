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

  (* Unboxed serial evaluator for float scalars: the same two-stage
     structure as [full] (FIR map, then in-place feedback solve), written
     monomorphically on [Buf.t] storage.  The accumulator lives in the
     destination slot, so no boxed float is allocated, and with emulated
     binary32 every add/multiply rounds through the
     [Int32.bits_of_float] round-trip exactly like [Scalar.F32] — results
     are bitwise identical to [full].  The boxed [full] above remains THE
     reference all backends are validated against. *)
  let full_into (s : S.t Signature.t) ~(src : Plr_util.Buf.t)
      ~(dst : Plr_util.Buf.t) =
    match S.rep with
    | Plr_util.Scalar.Float_rep rounding ->
        let module A1 = Bigarray.Array1 in
        let n = Plr_util.Buf.length src in
        Plr_util.Buf.check_into "Serial.full_into" ~src ~dst;
        let f32 = rounding = Plr_util.Scalar.Round_f32 in
        let forward = s.Signature.forward and feedback = s.Signature.feedback in
        let p = Array.length forward in
        let k = Array.length feedback in
        for i = 0 to n - 1 do
          A1.unsafe_set dst i 0.0;
          let tmax = if i < p - 1 then i else p - 1 in
          for t = 0 to tmax do
            let x = Array.unsafe_get forward t *. A1.unsafe_get src (i - t) in
            let x =
              if f32 then Int32.float_of_bits (Int32.bits_of_float x) else x
            in
            let v = A1.unsafe_get dst i +. x in
            A1.unsafe_set dst i
              (if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
          done
        done;
        for i = 0 to n - 1 do
          let jmax = if i < k then i else k in
          for j = 1 to jmax do
            let x = Array.unsafe_get feedback (j - 1) *. A1.unsafe_get dst (i - j) in
            let x =
              if f32 then Int32.float_of_bits (Int32.bits_of_float x) else x
            in
            let v = A1.unsafe_get dst i +. x in
            A1.unsafe_set dst i
              (if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
          done
        done
    | _ -> invalid_arg "Serial.full_into: not a float scalar"

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
