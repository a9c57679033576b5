module Device = Plr_gpusim.Device
module Analysis = Plr_nnacci.Analysis

module Make (S : Plr_util.Scalar.S) = struct
  module P = Plan.Make (S)

  (* Per-chunk working storage of the modeled device's registers/shared
     memory: an [S.t array] (flat for floats).  The kernels only see the
     accessors, so tests can view an existing array as working storage
     and inspect intermediate states. *)
  type work = { wget : int -> S.t; wset : int -> S.t -> unit }

  let work_of_array (a : S.t array) : work =
    { wget = (fun i -> a.(i)); wset = (fun i v -> a.(i) <- v) }

  let work_make m = work_of_array (Array.make m S.zero)

  type ctx = {
    dev : Device.t;
    plan : P.t;
    factor_base : int;
    input_base : int;
    fhooks : P.F.hooks;
  }

  (* The hooks charge the operation mix of the specialized code against the
     device: a factor load is a shared-memory read when it falls inside the
     cached prefix, otherwise a global (L2-resident) load.  Built once per
     context so the per-term correction allocates nothing. *)
  let make_ctx ~dev ~(plan : P.t) ~factor_base ~input_base =
    let on_load ~j ~q =
      if q < plan.P.shared_cache_elems then Device.shared_read dev
      else
        Device.read dev Device.Aux
          ~addr:(factor_base + (((j * plan.P.m) + q) * S.bytes))
          ~bytes:S.bytes
    in
    {
      dev;
      plan;
      factor_base;
      input_base;
      fhooks =
        {
          P.F.on_load;
          on_add = (fun () -> Device.add_op dev);
          on_mul = (fun () -> Device.mul_op dev);
          on_select = (fun () -> Device.select_op dev);
        };
    }

  (* [correct_term ctx j q acc carry] returns [acc + factors.(j).(q)·carry],
     charging the operation mix of the specialized code the generator emits
     for list [j] (paper §3.1) through the context's hooks. *)
  let correct_term ctx j q acc carry =
    P.F.correct ~hooks:ctx.fhooks ctx.plan.P.fplan ~j ~q ~carry ~acc

  (* Multiply-accumulate against a signature coefficient, suppressing terms
     the code generator would not emit. *)
  let coeff_term dev coeff acc value =
    if S.is_zero coeff then acc
    else if S.is_one coeff then begin
      Device.add_op dev;
      S.add acc value
    end
    else begin
      Device.mul_op dev;
      Device.add_op dev;
      S.add acc (S.mul coeff value)
    end

  let fir_chunk ctx ~input ~start ~(work : work) ~len =
    let plan = ctx.plan in
    let fwd = plan.P.signature.Signature.forward in
    let taps = Array.length fwd in
    if taps = 1 && S.is_one fwd.(0) then ()
    else begin
      let dev = ctx.dev in
      (* Walk backwards so [work] still holds raw input values for the
         lower-indexed neighbours each element needs. *)
      for i = len - 1 downto 0 do
        let gidx = start + i in
        let acc = ref S.zero in
        for j = 0 to min gidx (taps - 1) do
          let v =
            if j <= i then work.wget (i - j)
            else begin
              (* Boundary value from the preceding chunk: re-read it from
                 the input buffer in global memory. *)
              Device.read dev Device.Main
                ~addr:(ctx.input_base + ((gidx - j) * S.bytes))
                ~bytes:S.bytes;
              input.(gidx - j)
            end
          in
          acc := coeff_term dev fwd.(j) !acc v
        done;
        work.wset i !acc
      done
    end

  let phase1_levels plan =
    (* group doubles from x to m = 1024·x: log2(1024) iterations *)
    let rec count group acc = if group >= plan.P.m then acc else count (2 * group) (acc + 1) in
    count plan.P.x 0

  (* Per-thread sequential solve of each x-element slice (chunks of size 1
     merged serially inside a thread's registers). *)
  let serial_slices ctx (work : work) ~len =
    let plan = ctx.plan in
    let dev = ctx.dev in
    let fb = plan.P.signature.Signature.feedback in
    let k = plan.P.order in
    let x = plan.P.x in
    let lo = ref 0 in
    while !lo < len do
      let hi = min len (!lo + x) in
      for i = !lo to hi - 1 do
        let acc = ref (work.wget i) in
        for j = 1 to min (i - !lo) k do
          acc := coeff_term dev fb.(j - 1) !acc (work.wget (i - j))
        done;
        work.wset i !acc
      done;
      lo := hi
    done

  let phase1_merge_level ctx (work : work) ~len ~group =
    let plan = ctx.plan in
    let dev = ctx.dev in
    let k = plan.P.order in
    let x = plan.P.x in
    let pair = 2 * group in
    let carries_present = min k group in
    let base = ref 0 in
    while !base + group < len do
      let sc_start = !base + group in
      let sc_avail = min group (len - sc_start) in
      let limit =
        match P.zero_tail plan with
        | Some z -> min sc_avail z
        | None -> sc_avail
      in
      if limit > 0 then begin
        (* Carry exchange: within a warp's span the carries travel by
           shuffle; across warps through shared memory. *)
        let threads = (limit + x - 1) / x in
        if pair <= 32 * x then
          for _ = 1 to carries_present * threads do
            Device.shuffle dev
          done
        else begin
          for _ = 1 to carries_present do
            Device.shared_write dev
          done;
          for _ = 1 to carries_present * threads do
            Device.shared_read dev
          done
        end
      end;
      for q = 0 to limit - 1 do
        let idx = sc_start + q in
        let acc = ref (work.wget idx) in
        for j = 0 to carries_present - 1 do
          acc := correct_term ctx j q !acc (work.wget (sc_start - 1 - j))
        done;
        work.wset idx !acc
      done;
      base := !base + pair
    done

  let phase1_chunk ctx (work : work) ~len =
    serial_slices ctx work ~len;
    let group = ref ctx.plan.P.x in
    while !group < ctx.plan.P.m do
      phase1_merge_level ctx work ~len ~group:!group;
      group := 2 * !group
    done

  let apply_carries ctx (work : work) ~len ~g =
    let plan = ctx.plan in
    let k = plan.P.order in
    let limit =
      match P.zero_tail plan with Some z -> min len z | None -> len
    in
    for q = 0 to limit - 1 do
      let acc = ref (work.wget q) in
      for j = 0 to k - 1 do
        acc := correct_term ctx j q !acc g.(j)
      done;
      work.wset q !acc
    done

  let correct_carries ctx ~local ~g_prev =
    let plan = ctx.plan in
    let k = plan.P.order in
    let m = plan.P.m in
    Array.init k (fun j ->
        let q = m - 1 - j in
        let acc = ref local.(j) in
        for j' = 0 to k - 1 do
          acc := correct_term ctx j' q !acc g_prev.(j')
        done;
        !acc)

  let carries_of_chunk plan (work : work) ~len =
    let k = plan.P.order in
    Array.init k (fun j ->
        if len - 1 - j >= 0 then work.wget (len - 1 - j) else S.zero)
end
