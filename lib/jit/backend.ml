(* Dispatch + safety wrapper over {!Jit}: per-scalar preparation of a
   compiled kernel and the verify-then-trust run path.

   A prepared backend is never a correctness dependency.  [run] answers
   [None] — after recording a [jit.fallback] instant with a reason code —
   whenever the kernel cannot be used: JIT disabled, scalar unsupported,
   toolchain missing, build still in flight, build failed, or the kernel
   poisoned by a verification mismatch.  Callers keep their OCaml path
   as the fallback.

   Validation: until a kernel is validated, every [run] recomputes the
   same input through the OCaml serial reference and compares bitwise
   (floats by their IEEE bit patterns, any NaN agreeing with any NaN).
   Any mismatch poisons the kernel permanently and the call falls back.
   A match validates it for the rest of the process only when the input
   was long enough to check the steady-state loop: at least k + 1
   outputs past the guarded prologue of max (taps - 1) k, so the last
   checked output used only feedback the loop wrote itself (the F32
   register chain included).  A shorter match leaves the kernel
   unchecked. *)

module Trace = Plr_trace.Trace

(* Reason codes carried by the [jit.fallback] instant's first argument. *)
let reason_disabled = 1
let reason_unsupported = 2
let reason_no_toolchain = 3
let reason_build_failed = 4
let reason_building = 5
let reason_poisoned = 6

let reason_to_string = function
  | 1 -> "disabled"
  | 2 -> "unsupported scalar"
  | 3 -> "no C toolchain"
  | 4 -> "build failed"
  | 5 -> "build in flight"
  | 6 -> "poisoned by mismatch"
  | _ -> "unknown"

module Make (S : Plr_util.Scalar.S) = struct
  module C = Plr_codegen.Cemit.Make (S)
  module P = C.P
  module F = P.F
  module Sr = Plr_serial.Serial.Make (S)

  type validation = Unchecked | Validated | Poisoned

  type t = {
    cell : Jit.state Atomic.t;
    source : string;
    signature : S.t Signature.t;
    validates_at : int;
        (* the shortest checked input that validates: the prologue, then
           k + 1 steady-state outputs *)
    validation : validation Atomic.t;
  }

  let supported = C.supported
  let fallback reason = Trace.instant Trace.Jit "jit.fallback" reason 0

  let prepare_source ?(mode = `Sync) ~source s =
    {
      cell = Jit.get_or_build ~mode source;
      source;
      signature = s;
      validates_at =
        (let k = Signature.order s in
         max (Signature.fir_taps s - 1) k + k + 1);
      validation = Atomic.make Unchecked;
    }

  let prepare ?(mode = `Sync) ~fplan s =
    if not (Jit.enabled ()) then begin
      fallback reason_disabled;
      None
    end
    else if not supported then begin
      fallback reason_unsupported;
      None
    end
    else if not (Jit.toolchain_available ()) then begin
      fallback reason_no_toolchain;
      None
    end
    else Some (prepare_source ~mode ~source:(C.emit ~fplan s) s)

  let prepare_plan ?mode (plan : P.t) =
    prepare ?mode ~fplan:plan.P.fplan plan.P.signature

  let source t = t.source
  let state t = Atomic.get t.cell
  let wait t = Jit.wait t.cell

  let ready t =
    match Atomic.get t.cell with Jit.Ready _ -> true | _ -> false

  let validated t =
    match Atomic.get t.validation with Validated -> true | _ -> false

  let poisoned t =
    match Atomic.get t.validation with Poisoned -> true | _ -> false

  (* The kernel's contract vs the OCaml reference: exact for int; for
     floats, a NaN agrees with any NaN and every other value by its bit
     pattern.  Where two NaNs meet in an add, the C compiler's operand
     order decides which one propagates, so a NaN's sign and payload are
     outside the contract. *)
  let agrees (a : S.t array) (b : S.t array) =
    Array.length a = Array.length b
    &&
    match S.rep with
    | Plr_util.Scalar.Int_rep -> Array.for_all2 (fun (u : int) v -> u = v) a b
    | Plr_util.Scalar.Float_rep _ ->
        Array.for_all2
          (fun u v ->
            Int64.bits_of_float u = Int64.bits_of_float v
            || (Float.is_nan u && Float.is_nan v))
          a b
    | Plr_util.Scalar.Other_rep -> false

  (* The unit's direct entry for this scalar: the plain one on a flat
     [float array], the [_tagged] one on an [int array]'s tagged words
     ([0n] for a unit without it). *)
  let entry (fns : Jit.fns) =
    match S.rep with
    | Plr_util.Scalar.Float_rep _ -> fns.Jit.run
    | Plr_util.Scalar.Int_rep -> fns.Jit.run_tagged
    | Plr_util.Scalar.Other_rep -> 0n

  (* One native call into [dst], on the arrays themselves. *)
  let exec fn ~src ~dst =
    let n = Array.length src in
    if n > 0 then Jit.call_run_direct fn src dst n

  (* The chunked kernel bridges through off-heap storage: ints via Int64
     Bigarrays (sign-extension out, 63-bit truncation back; the kernel
     stores normalized 63-bit values, so no information is lost), floats
     via float64 ones. *)
  let exec_chunked (fns : Jit.fns) ~m (x : S.t array) : S.t array =
    let open Bigarray in
    let n = Array.length x in
    let call xb yb =
      if n > 0 then Jit.call_run_chunked fns.Jit.run_chunked xb yb n m
    in
    match S.rep with
    | Plr_util.Scalar.Int_rep ->
        let xb = Array1.create int64 c_layout n in
        let yb = Array1.create int64 c_layout n in
        Array.iteri (fun i v -> Array1.unsafe_set xb i (Int64.of_int v)) x;
        call xb yb;
        Array.init n (fun i -> Int64.to_int (Array1.unsafe_get yb i))
    | Plr_util.Scalar.Float_rep _ ->
        let yb = Array1.create float64 c_layout n in
        call (Array1.of_array float64 c_layout x) yb;
        Array.init n (Array1.unsafe_get yb)
    | Plr_util.Scalar.Other_rep ->
        invalid_arg "Jit.Backend.run_chunked: unsupported scalar"

  (* The kernel for a call, or [None] after recording why not. *)
  let usable t =
    match Atomic.get t.cell with
    | Jit.Building ->
        fallback reason_building;
        None
    | Jit.Failed _ ->
        fallback reason_build_failed;
        None
    | Jit.Ready fns when entry fns = 0n ->
        fallback reason_build_failed;
        None
    | Jit.Ready fns -> (
        match Atomic.get t.validation with
        | Poisoned ->
            fallback reason_poisoned;
            None
        | v -> Some (entry fns, v))

  let run t (x : S.t array) : S.t array option =
    match usable t with
    | None -> None
    | Some (fn, validation) ->
        (* until validated: verify this very input against the OCaml
           serial reference before trusting the kernel *)
        let checked = validation <> Validated in
        Trace.begin_span2 Trace.Jit
          (if checked then "jit.verify" else "jit.run")
          (Array.length x) 0;
        let y = Array.make (Array.length x) S.zero in
        exec fn ~src:x ~dst:y;
        let ok = (not checked) || agrees y (Sr.full t.signature x) in
        Trace.end_span ();
        if ok then begin
          if checked && Array.length x >= t.validates_at then
            Atomic.set t.validation Validated;
          Some y
        end
        else begin
          Atomic.set t.validation Poisoned;
          fallback reason_poisoned;
          None
        end

  let run_into t ~(src : S.t array) ~(dst : S.t array) : bool =
    Plr_serial.Serial.check_into "Jit.Backend.run_into" ~src ~dst;
    match Atomic.get t.validation with
    | Validated -> (
        match usable t with
        | Some (fn, _) ->
            Trace.begin_span2 Trace.Jit "jit.run" (Array.length src) 0;
            exec fn ~src ~dst;
            Trace.end_span ();
            true
        | None -> false)
    | _ -> (
        (* route an unvalidated call through [run] so it gets verified *)
        match run t src with
        | Some y ->
            Array.blit y 0 dst 0 (Array.length y);
            true
        | None -> false)

  (* The chunked two-phase kernel (specialized correction sweeps) —
     exposed for tests and the emit/demo path; dispatch uses [run]. *)
  let run_chunked t ~m (x : S.t array) : S.t array option =
    match Atomic.get t.cell with
    | Jit.Ready fns -> Some (exec_chunked fns ~m x)
    | Jit.Building ->
        fallback reason_building;
        None
    | Jit.Failed _ ->
        fallback reason_build_failed;
        None
end
