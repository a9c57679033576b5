(* Dispatch + safety wrapper over {!Jit}: per-scalar preparation of a
   compiled kernel and the verify-then-trust run path.

   A prepared backend is never a correctness dependency.  [run] answers
   [None] — after recording a [jit.fallback] instant with a reason code —
   whenever the kernel cannot be used: JIT disabled, scalar unsupported,
   toolchain missing, build still in flight, build failed, or the kernel
   poisoned by a first-use mismatch.  Callers keep their OCaml path as
   the fallback.

   First-use validation: the first successful [run] per prepared backend
   recomputes the same input through the OCaml serial reference and
   compares bitwise (floats by their IEEE bit patterns).  A match
   validates the kernel for the rest of the process; any mismatch
   poisons it permanently and the call falls back. *)

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
    validation : validation Atomic.t;
  }

  let supported = C.supported
  let fallback reason = Trace.instant Trace.Jit "jit.fallback" reason 0

  let prepare_source ?(mode = `Sync) ~source s =
    {
      cell = Jit.get_or_build ~mode source;
      source;
      signature = s;
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

  (* One native call.  The dispatched (unchunked) path is copy-free:
     float kernels run directly on the flat [float array] payloads, int
     kernels on the tagged words through the units' [_tagged] entry.
     The chunked path — and int units missing the tagged entry (stale
     on-disk cache from an older emitter) — bridge through off-heap
     storage instead: ints via Int64 Bigarrays (sign-extension out,
     63-bit truncation back; the kernel stores normalized 63-bit values,
     so no information is lost), floats via unboxed Buf storage. *)
  let exec ?chunk (fns : Jit.fns) (x : S.t array) : S.t array =
    let n = Array.length x in
    if n = 0 then [||]
    else
      let call : type a b.
          (a, b, Bigarray.c_layout) Bigarray.Array1.t ->
          (a, b, Bigarray.c_layout) Bigarray.Array1.t ->
          unit =
       fun xb yb ->
        match chunk with
        | None -> Jit.call_run fns.Jit.run xb yb n
        | Some m -> Jit.call_run_chunked fns.Jit.run_chunked xb yb n m
      in
      match S.rep with
      | Plr_util.Scalar.Int_rep ->
          if chunk = None && fns.Jit.run_tagged <> 0n then begin
            let y = Array.make n 0 in
            Jit.call_run_direct fns.Jit.run_tagged x y n;
            y
          end
          else begin
            let open Bigarray in
            let xb = Array1.create int64 c_layout n in
            let yb = Array1.create int64 c_layout n in
            for i = 0 to n - 1 do
              Array1.unsafe_set xb i (Int64.of_int x.(i))
            done;
            call xb yb;
            Array.init n (fun i -> Int64.to_int (Array1.unsafe_get yb i))
          end
      | Plr_util.Scalar.Float_rep _ ->
          if chunk = None then begin
            let y = Array.make n 0.0 in
            Jit.call_run_direct fns.Jit.run x y n;
            y
          end
          else begin
            let xb = Plr_util.Buf.of_array x in
            let yb = Plr_util.Buf.create n in
            call xb yb;
            Plr_util.Buf.to_array yb
          end
      | Plr_util.Scalar.Other_rep ->
          invalid_arg "Jit.Backend.exec: unsupported scalar"

  let run t (x : S.t array) : S.t array option =
    match Atomic.get t.cell with
    | Jit.Building ->
        fallback reason_building;
        None
    | Jit.Failed _ ->
        fallback reason_build_failed;
        None
    | Jit.Ready fns -> (
        match Atomic.get t.validation with
        | Poisoned ->
            fallback reason_poisoned;
            None
        | Validated ->
            Trace.begin_span2 Trace.Jit "jit.run" (Array.length x) 0;
            let y = exec fns x in
            Trace.end_span ();
            Some y
        | Unchecked ->
            (* first use: verify this very input against the OCaml
               serial reference before trusting the kernel *)
            Trace.begin_span2 Trace.Jit "jit.verify" (Array.length x) 0;
            let y = exec fns x in
            let reference = Sr.full t.signature x in
            let ok = agrees y reference in
            Trace.end_span ();
            if ok then begin
              Atomic.set t.validation Validated;
              Some y
            end
            else begin
              Atomic.set t.validation Poisoned;
              fallback reason_poisoned;
              None
            end)

  let run_into t ~(src : Plr_util.Buf.t) ~(dst : Plr_util.Buf.t) : bool =
    match S.rep with
    | Plr_util.Scalar.Float_rep _ -> (
        Plr_util.Buf.check_into "Jit.Backend.run_into" ~src ~dst;
        match (Atomic.get t.cell, Atomic.get t.validation) with
        | Jit.Ready fns, Validated ->
            let n = Plr_util.Buf.length src in
            Trace.begin_span2 Trace.Jit "jit.run" n 0;
            if n > 0 then Jit.call_run fns.Jit.run src dst n;
            Trace.end_span ();
            true
        | Jit.Ready _, Unchecked -> (
            (* route the first call through [run] so it gets verified *)
            match run t (Plr_util.Buf.to_array src) with
            | Some y ->
                Plr_util.Buf.blit_from_array y dst;
                true
            | None -> false)
        | Jit.Ready _, Poisoned ->
            fallback reason_poisoned;
            false
        | Jit.Building, _ ->
            fallback reason_building;
            false
        | Jit.Failed _, _ ->
            fallback reason_build_failed;
            false)
    | _ -> false

  (* The chunked two-phase kernel (specialized correction sweeps) —
     exposed for tests and the emit/demo path; dispatch uses [run]. *)
  let run_chunked t ~m (x : S.t array) : S.t array option =
    match Atomic.get t.cell with
    | Jit.Ready fns -> Some (exec ~chunk:m fns x)
    | Jit.Building ->
        fallback reason_building;
        None
    | Jit.Failed _ ->
        fallback reason_build_failed;
        None
end
