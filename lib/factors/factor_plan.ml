module Analysis = Plr_nnacci.Analysis

type bitmask = Bytes.t

let mask_make n = Bytes.make ((n + 7) / 8) '\000'

let mask_set m i =
  let b = i lsr 3 in
  Bytes.set m b (Char.chr (Char.code (Bytes.get m b) lor (1 lsl (i land 7))))

let mask_get m i = Char.code (Bytes.get m (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Helpers of the unboxed sweeps, outside the functor so the compiler can
   inline them.  Binary32 rounding goes through the sweep's own
   {!Plr_util.F32.cell}: inline conversions, bitwise the [Int32] round
   trip of {!Plr_util.Scalar.F32}. *)
let[@inline] round f32 (cell : Plr_util.F32.cell) v =
  if f32 then begin
    Bigarray.Array1.unsafe_set cell 0 v;
    Bigarray.Array1.unsafe_get cell 0
  end
  else v

(* [y(i) <- y(i) + p], rounded as the boxed evaluator rounds it.  [y(i)]
   is bound first: written inline, the load would become the second
   operand, and of two NaN operands x86 returns the first. *)
let[@inline] add_f f32 cell (y : float array) i p =
  let yi = Array.unsafe_get y i in
  Array.unsafe_set y i (round f32 cell (yi +. p))

let[@inline] add_i (y : int array) i v =
  Array.unsafe_set y i (Array.unsafe_get y i + v)

module Make (S : Plr_util.Scalar.S) = struct
  module A = Analysis.Make (S)
  module Nnacci = Plr_nnacci.Nnacci.Make (S)

  type compiled =
    | All_equal of S.t
    | Zero_one of { period : int option; ones : bitmask }
    | Repeating of { period : int; stored : S.t array }
    | Decayed of { cutoff : int; stored : S.t array }
    | Dense of S.t array

  type t = {
    order : int;
    m : int;
    opts : Opts.t;
    raw : S.t array array;
    analyses : S.t Analysis.t array;
    compiled : compiled array;
    zero_tail : int option;
  }

  type hooks = {
    on_load : j:int -> q:int -> unit;
    on_add : unit -> unit;
    on_mul : unit -> unit;
    on_select : unit -> unit;
  }

  let no_hooks =
    {
      on_load = (fun ~j:_ ~q:_ -> ());
      on_add = (fun () -> ());
      on_mul = (fun () -> ());
      on_select = (fun () -> ());
    }

  let class_code t j =
    match t.compiled.(j) with
    | All_equal _ -> 0
    | Zero_one _ -> 1
    | Repeating _ -> 2
    | Decayed _ -> 3
    | Dense _ -> 4

  let compile ?(opts = Opts.all_on) ?max_period raw =
    let order = Array.length raw in
    let m = if order = 0 then 0 else Array.length raw.(0) in
    Plr_trace.Trace.begin_span2 Plr_trace.Trace.Factors "factor.compile" order m;
    let analyses = A.analyze_all ?max_period raw in
    let compile_list j a =
      let l = raw.(j) in
      match a with
      | Analysis.All_equal v when opts.Opts.specialize_all_equal -> All_equal v
      | Analysis.Zero_one when opts.Opts.specialize_zero_one ->
          let ones = mask_make (Array.length l) in
          Array.iteri (fun q f -> if S.is_one f then mask_set ones q) l;
          Zero_one { period = A.zero_one_period l; ones }
      | Analysis.Repeating p when opts.Opts.compress_repeating ->
          Repeating { period = p; stored = Array.sub l 0 p }
      | Analysis.Decays_to_zero z when opts.Opts.flush_denormals ->
          Decayed { cutoff = z; stored = Array.sub l 0 z }
      | Analysis.All_equal _ | Analysis.Zero_one | Analysis.Repeating _
      | Analysis.Decays_to_zero _ | Analysis.General ->
          Dense l
    in
    let compiled = Array.mapi compile_list analyses in
    let zero_tail = if opts.Opts.flush_denormals then A.zero_tail analyses else None in
    let t = { order; m; opts; raw; analyses; compiled; zero_tail } in
    if Plr_trace.Trace.enabled () then
      for j = 0 to order - 1 do
        Plr_trace.Trace.instant Plr_trace.Trace.Factors "factor.specialize" j
          (class_code t j)
      done;
    Plr_trace.Trace.end_span ();
    t

  (* Correction factors are precomputed offline on the host (paper §3):
     integer factors with the target's wrap-around arithmetic, floating
     factors in double precision before conversion to the device type — so a
     decaying sequence's tail converts to exact zeros under FTZ instead of
     hovering at the denormal threshold. *)
  let of_feedback ?(opts = Opts.all_on) ?max_period ~feedback ~m () =
    let flush = opts.Opts.flush_denormals && S.kind = Plr_util.Scalar.Floating in
    let raw =
      match S.kind with
      | Plr_util.Scalar.Integer -> Nnacci.factor_lists ~feedback ~m ()
      | Plr_util.Scalar.Floating when S.exact_f64_embedding ->
          let module N64 = Plr_nnacci.Nnacci.Make (Plr_util.Scalar.F64) in
          let fb64 = Array.map S.to_float feedback in
          let convert v =
            let r = S.of_float v in
            if flush then S.flush_denormal r else r
          in
          (* Generate under FTZ too (paper §3): a decaying sequence can get
             stuck hovering at the minimum subnormal (1.6x - 0.64x rounds
             back to x there), which both defeats the zero-tail early exit
             and runs the whole tail on slow microcoded denormal
             arithmetic.  Flushing inside the recurrence reaches the exact
             zeros the conversion below would produce anyway. *)
          Array.map (Array.map convert)
            (N64.factor_lists ~flush_denormals:flush ~feedback:fb64 ~m ())
      | Plr_util.Scalar.Floating ->
          (* semiring scalars: generate with the semiring's own operations *)
          Nnacci.factor_lists ~feedback ~m ()
    in
    compile ~opts ?max_period raw

  let effective t j =
    match t.compiled.(j) with
    | All_equal v -> Analysis.All_equal v
    | Zero_one _ -> Analysis.Zero_one
    | Repeating { period; _ } -> Analysis.Repeating period
    | Decayed { cutoff; _ } -> Analysis.Decays_to_zero cutoff
    | Dense _ -> Analysis.General

  let value t j q =
    match t.compiled.(j) with
    | All_equal v -> v
    | Zero_one { ones; _ } -> if mask_get ones q then S.one else S.zero
    | Repeating { period; stored } -> stored.(q mod period)
    | Decayed { cutoff; stored } -> if q >= cutoff then S.zero else stored.(q)
    | Dense l -> l.(q)

  (* [correct] mirrors the operation mix of the specialized code the
     generator emits for list [j] (paper §3.1); the hooks let the GPU model
     charge its per-op device counters without this module knowing about
     devices. *)
  let correct ?(hooks = no_hooks) t ~j ~q ~carry ~acc =
    match t.compiled.(j) with
    | All_equal f ->
        (* The factor array is suppressed; the constant is in the code. *)
        if S.is_zero f then acc
        else if S.is_one f then begin
          hooks.on_add ();
          S.add acc carry
        end
        else begin
          hooks.on_mul ();
          hooks.on_add ();
          S.add acc (S.mul f carry)
        end
    | Zero_one { ones; _ } ->
        (* Conditional add: the 0/1 pattern is compiled into predicated
           code, so no multiply and no factor load. *)
        hooks.on_select ();
        if mask_get ones q then S.add acc carry else acc
    | Repeating { period; stored } ->
        let q' = q mod period in
        hooks.on_load ~j ~q:q';
        hooks.on_mul ();
        hooks.on_add ();
        S.add acc (S.mul stored.(q') carry)
    | Decayed { cutoff; stored } ->
        if q >= cutoff then acc (* term suppressed: the factor is exactly zero *)
        else begin
          hooks.on_load ~j ~q;
          hooks.on_mul ();
          hooks.on_add ();
          S.add acc (S.mul stored.(q) carry)
        end
    | Dense l ->
        hooks.on_load ~j ~q;
        hooks.on_mul ();
        hooks.on_add ();
        S.add acc (S.mul l.(q) carry)

  (* CPU fast path: one whole-list correction sweep, specialized per compiled
     form so the per-element dispatch of [correct] stays out of the hot
     loop.  Accumulation order per element is identical to calling [correct]
     for each q, so integer results match bitwise. *)
  let apply_list t ~j ~carry y ~base ~len =
    match t.compiled.(j) with
    | All_equal f ->
        if S.is_zero f then ()
        else if S.is_one f then
          for q = 0 to len - 1 do
            y.(base + q) <- S.add y.(base + q) carry
          done
        else begin
          for q = 0 to len - 1 do
            y.(base + q) <- S.add y.(base + q) (S.mul f carry)
          done
        end
    | Zero_one { ones; _ } ->
        for q = 0 to len - 1 do
          if mask_get ones q then y.(base + q) <- S.add y.(base + q) carry
        done
    | Repeating { period; stored } ->
        for q = 0 to len - 1 do
          y.(base + q) <- S.add y.(base + q) (S.mul stored.(q mod period) carry)
        done
    | Decayed { cutoff; stored } ->
        (* Decayed-tail skip: everything past the cutoff keeps its value. *)
        for q = 0 to min len cutoff - 1 do
          y.(base + q) <- S.add y.(base + q) (S.mul stored.(q) carry)
        done
    | Dense l ->
        for q = 0 to len - 1 do
          y.(base + q) <- S.add y.(base + q) (S.mul l.(q) carry)
        done

  (* Monomorphic sweeps for the unboxed CPU backends.  Matching on [S.rep]
     refines [S.t], so [stored : S.t array] below really is a flat
     [float array] / [int array] and every operation compiles without
     boxing.  The range is checked once and the loops run unchecked.  A
     periodic 0/1 list is one strided pass per one-position of its period
     — an element takes at most one add per list, so the visiting order
     cannot change a bit — and a repeating list walks its period with a
     wrapping index instead of a per-element [mod].  Per element, the
     accumulation order (and, for F32, the round after every operation)
     replicates [apply_list] exactly, so results are bitwise identical to
     the generic evaluator. *)

  let check_range name t ~ylen ~base ~len =
    if base < 0 || len < 0 || base + len > ylen || len > t.m then
      invalid_arg (name ^ ": range out of bounds")

  let apply_list_f t ~j ~(carry : S.t) (y : float array) ~base ~len =
    match S.rep with
    | Plr_util.Scalar.Float_rep rounding -> (
        check_range "Factor_plan.apply_list_f" t ~ylen:(Array.length y)
          ~base ~len;
        let f32 = rounding = Plr_util.Scalar.Round_f32 in
        let cell = Plr_util.F32.cell () in
        match t.compiled.(j) with
        | All_equal f ->
            if not (S.is_zero f) then begin
              (* [S.mul f carry] is loop-invariant (same rounded product
                 every iteration in the boxed evaluator), so hoisting
                 preserves bits; a one adds the carry itself. *)
              let fc =
                if S.is_one f then carry else round f32 cell (f *. carry)
              in
              for i = base to base + len - 1 do
                add_f f32 cell y i fc
              done
            end
        | Zero_one { period = Some p; ones } ->
            for r = 0 to p - 1 do
              if mask_get ones r then begin
                let q = ref r in
                while !q < len do
                  add_f f32 cell y (base + !q) carry;
                  q := !q + p
                done
              end
            done
        | Zero_one { period = None; ones } ->
            for q = 0 to len - 1 do
              if mask_get ones q then add_f f32 cell y (base + q) carry
            done
        | Repeating { period; stored } ->
            let r = ref 0 in
            for i = base to base + len - 1 do
              let p = Array.unsafe_get stored !r *. carry in
              add_f f32 cell y i (round f32 cell p);
              incr r;
              if !r = period then r := 0
            done
        | Decayed { cutoff; stored } ->
            (* Decayed-tail skip: everything past the cutoff keeps its value. *)
            for q = 0 to min len cutoff - 1 do
              let p = Array.unsafe_get stored q *. carry in
              add_f f32 cell y (base + q) (round f32 cell p)
            done
        | Dense l ->
            for q = 0 to len - 1 do
              let p = Array.unsafe_get l q *. carry in
              add_f f32 cell y (base + q) (round f32 cell p)
            done)
    | _ -> invalid_arg "Factor_plan.apply_list_f: not a float scalar"

  let apply_list_int t ~j ~(carry : S.t) (y : int array) ~base ~len =
    match S.rep with
    | Plr_util.Scalar.Int_rep -> (
        check_range "Factor_plan.apply_list_int" t ~ylen:(Array.length y) ~base
          ~len;
        match t.compiled.(j) with
        | All_equal f ->
            if f <> 0 then begin
              let fc = f * carry in
              for i = base to base + len - 1 do
                add_i y i fc
              done
            end
        | Zero_one { period = Some p; ones } ->
            for r = 0 to p - 1 do
              if mask_get ones r then begin
                let q = ref r in
                while !q < len do
                  add_i y (base + !q) carry;
                  q := !q + p
                done
              end
            done
        | Zero_one { period = None; ones } ->
            for q = 0 to len - 1 do
              if mask_get ones q then add_i y (base + q) carry
            done
        | Repeating { period; stored } ->
            let r = ref 0 in
            for i = base to base + len - 1 do
              add_i y i (Array.unsafe_get stored !r * carry);
              incr r;
              if !r = period then r := 0
            done
        | Decayed { cutoff; stored } ->
            for q = 0 to min len cutoff - 1 do
              add_i y (base + q) (Array.unsafe_get stored q * carry)
            done
        | Dense l ->
            for q = 0 to len - 1 do
              add_i y (base + q) (Array.unsafe_get l q * carry)
            done)
    | _ -> invalid_arg "Factor_plan.apply_list_int: not an int scalar"

  let table t j =
    match t.compiled.(j) with
    | All_equal _ | Zero_one { period = Some _; _ } -> None
    | Zero_one { period = None; _ } -> Some t.raw.(j)
    | Repeating { stored; _ } | Decayed { stored; _ } -> Some stored
    | Dense l -> Some l

  let table_elems t j =
    match table t j with None -> 0 | Some l -> Array.length l

  let table_bytes t =
    let elems = ref 0 in
    for j = 0 to t.order - 1 do
      elems := !elems + table_elems t j
    done;
    !elems * S.bytes

  let one_positions t j =
    match t.compiled.(j) with
    | Zero_one { period = Some p; ones } ->
        List.filter (mask_get ones) (List.init p Fun.id)
    | All_equal _ | Zero_one { period = None; _ } | Repeating _ | Decayed _
    | Dense _ ->
        []

  let describe t j =
    match t.compiled.(j) with
    | All_equal v -> Printf.sprintf "all-equal(%s)" (S.to_string v)
    | Zero_one { period = Some p; _ } -> Printf.sprintf "zero-one(period %d)" p
    | Zero_one { period = None; _ } -> "zero-one(table)"
    | Repeating { period; _ } -> Printf.sprintf "repeating(period %d)" period
    | Decayed { cutoff; _ } -> Printf.sprintf "decayed(cutoff %d)" cutoff
    | Dense _ -> "dense"
end
