(* The native-CPU counterpart of {!Emit}: translate a compiled plan into a
   self-contained C translation unit the JIT runtime ([Plr_jit]) compiles
   with the system cc and dlopens.  Two entry points are emitted:

   - [plr_jit_run] — the dispatched fast path: a fully specialized serial
     FIR+feedback kernel with every coefficient baked into the code as a
     constant, operating on raw restrict pointers.  Its operation order
     replicates [Serial.full] exactly (zero-initialized accumulator, taps
     in increasing lag order, then feedback terms j = 1..k against final
     previous outputs), so for integer scalars — and, compiled with
     contraction and fast-math off, for float scalars too — the output is
     bitwise identical to the OCaml serial reference.
   - [plr_jit_run_chunked] — the paper's §3 two-phase chunked algorithm
     with the correction-factor sweeps specialized per {!Factor_plan}
     class: all-equal lists fold into constants (or a bare add for 1, or
     nothing for 0), zero/one lists become bitmask-predicated conditional
     adds, repeating lists store one period, decayed lists truncate at the
     zero tail, dense lists keep the full static table.  Chunks are
     corrected in order from the previous chunk's corrected tail, which
     is bitwise the multicore backend's promoted carry, so results are
     bitwise identical to the sequential-fallback backend at the same
     chunk size.

   Float arithmetic is emitted against IEEE binary64 with one explicit
   [(double)(float)] rounding step per operation for the F32 emulation;
   native ints are 63-bit, so integer kernels accumulate modulo 2^64 (in
   uint64_t, where wrap-around is defined) and renormalize to 63 bits at
   each store — congruent mod 2^63, hence bit-equal to OCaml. *)

module Make (S : Plr_util.Scalar.S) = struct
  module P = Plr_core.Plan.Make (S)
  module F = P.F

  let supported =
    match S.rep with
    | Plr_util.Scalar.Int_rep -> true
    | Plr_util.Scalar.Float_rep _ -> true
    | Plr_util.Scalar.Other_rep -> false

  let is_int =
    match S.rep with Plr_util.Scalar.Int_rep -> true | _ -> false

  let is_f32 =
    match S.rep with
    | Plr_util.Scalar.Float_rep Plr_util.Scalar.Round_f32 -> true
    | _ -> false

  (* Exact literals: C99 hex floats round-trip every finite binary64;
     non-finite factor values (an unstable signature's overflowed tables)
     go through a bit-pattern constructor. *)
  let flit f =
    if Float.is_finite f then Printf.sprintf "%h" f
    else Printf.sprintf "plr_from_bits(UINT64_C(0x%Lx))" (Int64.bits_of_float f)

  let lit (v : S.t) =
    match S.rep with
    | Plr_util.Scalar.Int_rep -> Printf.sprintf "INT64_C(%d)" v
    | Plr_util.Scalar.Float_rep _ -> flit v
    | Plr_util.Scalar.Other_rep -> invalid_arg "Cemit.lit: unsupported scalar"

  let ctype = if is_int then "int64_t" else "double"

  (* Per-operation rounding wrapper: the F32 emulation rounds every add
     and multiply to binary32; binary64 and int leave the expression
     alone. *)
  let rnd e = if is_f32 then "plr_rnd(" ^ e ^ ")" else "(" ^ e ^ ")"

  let scalar_comment =
    if is_int then "native 63-bit int (accumulated mod 2^64, renormalized at stores)"
    else if is_f32 then "emulated binary32 (binary64 ops, rounded to float per operation)"
    else "binary64"

  (* One fused FIR + feedback term sequence for output index [iexpr],
     accumulating into [a]; [guard j] emits the prologue bound checks
     (empty in the steady state).  Mirrors [Serial.full]'s operation
     order exactly.  [srcx]/[srcy] build the load expressions, so the
     tagged-representation kernel can reuse the same term sequence. *)
  let plain_srcx t = Printf.sprintf "x[i - %d]" t
  let plain_srcy j = Printf.sprintf "y[i - %d]" j

  let emit_terms b ~s ~guard_tap ~guard_fb ~srcx ~srcy =
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let forward = s.Signature.forward and feedback = s.Signature.feedback in
    let term coeff src =
      if is_int then begin
        (* skipping zero terms and eliding unit multiplies is exact in
           modular arithmetic *)
        if not (S.is_zero coeff) then
          if S.is_one coeff then Some (Printf.sprintf "a += (uint64_t)%s;" src)
          else
            Some
              (Printf.sprintf "a += (uint64_t)%s * (uint64_t)%s;" (lit coeff)
                 src)
        else None
      end
      else if S.is_one coeff then
        (* 1.0 * x is exact in IEEE arithmetic, so the multiply may go *)
        Some (Printf.sprintf "a = %s;" (rnd ("a + " ^ src)))
      else
        (* zero coefficients stay: 0.0 * inf and 0.0 * nan are not
           identities, and the reference computes them *)
        Some
          (Printf.sprintf "a = %s;"
             (rnd
                (Printf.sprintf "a + %s"
                   (rnd (Printf.sprintf "%s * %s" (lit coeff) src)))))
    in
    Array.iteri
      (fun t c ->
        match term c (srcx t) with
        | None -> ()
        | Some body -> pf "      %s%s\n" (guard_tap t) body)
      forward;
    Array.iteri
      (fun j0 c ->
        let j = j0 + 1 in
        match term c (srcy j) with
        | None -> ()
        | Some body -> pf "      %s%s\n" (guard_fb j) body)
      feedback

  let acc_decl = if is_int then "uint64_t a = 0;" else "double a = 0.0;"
  let store = if is_int then "plr_norm(a)" else "a"

  (* The add used by the correction sweeps: y[i] <- y[i] + rhs with the
     scalar's own rounding/normalization, mirroring
     [Factor_plan.apply_list_f] / [apply_list_int]. *)
  let sweep_add ~dst rhs =
    if is_int then
      Printf.sprintf "%s = plr_norm((uint64_t)%s + %s);" dst dst rhs
    else Printf.sprintf "%s = %s;" dst (rnd (Printf.sprintf "%s + %s" dst rhs))

  let table_initializer stored =
    let b = Buffer.create 256 in
    Array.iteri
      (fun q v ->
        if q > 0 then Buffer.add_string b ", ";
        if q mod 6 = 0 && q > 0 then Buffer.add_string b "\n  ";
        Buffer.add_string b (lit v))
      stored;
    Buffer.contents b

  let mask_initializer ones nbits =
    let b = Buffer.create 64 in
    let nbytes = (nbits + 7) / 8 in
    for i = 0 to nbytes - 1 do
      let byte = ref 0 in
      for bit = 0 to 7 do
        let q = (i * 8) + bit in
        if q < nbits && Plr_factors.Factor_plan.mask_get ones q then
          byte := !byte lor (1 lsl bit)
      done;
      if i > 0 then Buffer.add_string b ", ";
      if i mod 12 = 0 && i > 0 then Buffer.add_string b "\n  ";
      Buffer.add_string b (Printf.sprintf "0x%02x" !byte)
    done;
    Buffer.contents b

  (* One static sweep function per factor list, specialized to its
     compiled class.  Bodies replicate the monomorphic OCaml sweeps
     operation for operation. *)
  let emit_sweep b (fplan : F.t) j =
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let name = Printf.sprintf "plr_sweep_%d" j in
    let header () =
      pf "static void %s(%s* restrict y, int64_t base, int64_t len, %s carry) {\n"
        name ctype ctype
    in
    (match fplan.F.compiled.(j) with
    | F.All_equal f when S.is_zero f ->
        pf "/* factor list %d: all factors are 0 — the sweep is a no-op */\n" j;
        header ();
        pf "  (void)y; (void)base; (void)len; (void)carry;\n"
    | F.All_equal f when S.is_one f ->
        pf "/* factor list %d: all factors are 1 — carry adds straight in */\n" j;
        header ();
        pf "  for (int64_t q = 0; q < len; q++) {\n";
        pf "    %s\n" (sweep_add ~dst:"y[base + q]" "carry");
        pf "  }\n"
    | F.All_equal f ->
        pf "/* factor list %d: all factors equal %s (folded to a constant) */\n"
          j (lit f);
        header ();
        if is_int then
          pf "  uint64_t fc = (uint64_t)%s * (uint64_t)carry;\n" (lit f)
        else
          (* loop-invariant product, hoisted exactly like apply_list_f *)
          pf "  %s fc = %s;\n" ctype
            (rnd (Printf.sprintf "%s * carry" (lit f)));
        pf "  for (int64_t q = 0; q < len; q++) {\n";
        pf "    %s\n" (sweep_add ~dst:"y[base + q]" "fc");
        pf "  }\n"
    | F.Zero_one { ones; _ } ->
        pf "/* factor list %d: 0/1 factors — bitmask-predicated conditional add */\n" j;
        pf "static const uint8_t plr_ones_%d[] = { %s };\n" j
          (mask_initializer ones fplan.F.m);
        header ();
        pf "  for (int64_t q = 0; q < len; q++) {\n";
        pf "    if ((plr_ones_%d[q >> 3] >> (q & 7)) & 1) {\n" j;
        pf "      %s\n" (sweep_add ~dst:"y[base + q]" "carry");
        pf "    }\n  }\n"
    | F.Repeating { period; stored } ->
        pf "/* factor list %d: repeating with period %d — one stored period */\n"
          j period;
        pf "static const %s plr_tab_%d[%d] = { %s };\n" ctype j period
          (table_initializer stored);
        header ();
        pf "  for (int64_t q = 0; q < len; q++) {\n";
        if is_int then
          pf "    uint64_t p = (uint64_t)plr_tab_%d[q %% %d] * (uint64_t)carry;\n"
            j period
        else
          pf "    %s p = %s;\n" ctype
            (rnd (Printf.sprintf "plr_tab_%d[q %% %d] * carry" j period));
        pf "    %s\n" (sweep_add ~dst:"y[base + q]" "p");
        pf "  }\n"
    | F.Decayed { cutoff; stored } ->
        pf "/* factor list %d: decays to exact zero at index %d — tail skipped */\n"
          j cutoff;
        if cutoff > 0 then
          pf "static const %s plr_tab_%d[%d] = { %s };\n" ctype j cutoff
            (table_initializer stored);
        header ();
        pf "  int64_t hi = len < %d ? len : %d;\n" cutoff cutoff;
        if cutoff = 0 then pf "  (void)y; (void)base; (void)carry; (void)hi;\n"
        else begin
          pf "  for (int64_t q = 0; q < hi; q++) {\n";
          if is_int then
            pf "    uint64_t p = (uint64_t)plr_tab_%d[q] * (uint64_t)carry;\n" j
          else
            pf "    %s p = %s;\n" ctype
              (rnd (Printf.sprintf "plr_tab_%d[q] * carry" j));
          pf "    %s\n" (sweep_add ~dst:"y[base + q]" "p");
          pf "  }\n"
        end
    | F.Dense l ->
        pf "/* factor list %d: general — full static table */\n" j;
        pf "static const %s plr_tab_%d[%d] = { %s };\n" ctype j (Array.length l)
          (table_initializer l);
        header ();
        pf "  for (int64_t q = 0; q < len; q++) {\n";
        if is_int then
          pf "    uint64_t p = (uint64_t)plr_tab_%d[q] * (uint64_t)carry;\n" j
        else
          pf "    %s p = %s;\n" ctype
            (rnd (Printf.sprintf "plr_tab_%d[q] * carry" j));
        pf "    %s\n" (sweep_add ~dst:"y[base + q]" "p");
        pf "  }\n");
    pf "}\n\n"

  let emit ~(fplan : F.t) (s : S.t Signature.t) =
    if not supported then
      invalid_arg "Cemit.emit: scalar has no native C representation";
    let k = Signature.order s in
    let taps = Signature.fir_taps s in
    if fplan.F.order <> k then
      invalid_arg "Cemit.emit: factor plan order does not match the signature";
    let b = Buffer.create (16 * 1024) in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "/* Generated by PLR — native JIT kernel.\n";
    pf " * signature: %s\n" (Signature.to_string S.to_string s);
    pf " * scalar: %s\n" scalar_comment;
    pf " * order k = %d, feed-forward taps = %d, factor table length m = %d\n"
      k taps fplan.F.m;
    for j = 0 to k - 1 do
      pf " * factor list %d: %s\n" j (F.describe fplan j)
    done;
    pf " * Compile with contraction and fast-math OFF: the contract is\n";
    pf " * bitwise identity with the OCaml serial reference. */\n\n";
    pf "#include <stdint.h>\n\n";
    if is_f32 then
      pf "static inline double plr_rnd(double v) { return (double)(float)v; }\n";
    if is_int then begin
      pf "/* OCaml's native int is 63-bit two's complement; reducing a mod-2^64\n";
      pf "   accumulator at store time is congruent mod 2^63, so results match\n";
      pf "   the OCaml kernels bit for bit. */\n";
      pf "static inline int64_t plr_norm(uint64_t v) {\n";
      pf "  return (int64_t)(v << 1) >> 1;\n}\n"
    end;
    if not is_int then
      pf "static inline double plr_from_bits(uint64_t u) {\n\
         \  union { uint64_t u; double d; } v; v.u = u; return v.d;\n}\n";
    pf "\n";
    (* ---- the dispatched serial-order kernel ---- *)
    let prologue = max (taps - 1) k in
    let serial_body ~srcx ~srcy ~st =
      pf "  int64_t i = 0;\n";
      pf "  int64_t pro = n < %d ? n : %d;\n" prologue prologue;
      pf "  for (; i < pro; i++) {\n";
      pf "      %s\n" acc_decl;
      emit_terms b ~s ~srcx ~srcy
        ~guard_tap:(fun t ->
          if t = 0 then "" else Printf.sprintf "if (i >= %d) " t)
        ~guard_fb:(fun j -> Printf.sprintf "if (i >= %d) " j);
      pf "      y[i] = %s;\n" st;
      pf "  }\n";
      pf "  for (; i < n; i++) {\n";
      pf "      %s\n" acc_decl;
      emit_terms b ~s ~srcx ~srcy ~guard_tap:(fun _ -> "")
        ~guard_fb:(fun _ -> "");
      pf "      y[i] = %s;\n" st;
      pf "  }\n}\n\n"
    in
    pf "/* Serial-order fused kernel: identical operation sequence to the\n";
    pf "   OCaml serial reference, coefficients baked in, monomorphic over\n";
    pf "   restrict pointers.  The first %d elements carry bounds guards;\n" prologue;
    pf "   the steady-state loop is guard-free. */\n";
    pf "void plr_jit_run(const %s* restrict x, %s* restrict y, int64_t n) {\n"
      ctype ctype;
    serial_body ~srcx:plain_srcx ~srcy:plain_srcy ~st:store;
    if is_int then begin
      (* The copy-free entry: OCaml int arrays are flat words holding
         2v+1.  Untagging on load is an arithmetic shift; retagging the
         mod-2^64 accumulator is (a << 1) | 1, which is congruent to
         tagging the renormalized 63-bit value, so the stored words are
         exactly the tagged form of the bitwise-exact results. *)
      pf "/* Same kernel over OCaml's tagged int representation (word = 2v+1):\n";
      pf "   runs directly on an OCaml int array with no copy or boxing. */\n";
      pf "void plr_jit_run_tagged(const %s* restrict x, %s* restrict y, int64_t n) {\n"
        ctype ctype;
      serial_body
        ~srcx:(fun t -> Printf.sprintf "(x[i - %d] >> 1)" t)
        ~srcy:(fun j -> Printf.sprintf "(y[i - %d] >> 1)" j)
        ~st:"(int64_t)((a << 1) | UINT64_C(1))"
    end;
    (* ---- specialized correction sweeps + the chunked algorithm ---- *)
    for j = 0 to k - 1 do
      emit_sweep b fplan j
    done;
    pf "/* The paper's two-phase chunked algorithm on one core: per-chunk\n";
    pf "   fused solve, then the specialized correction sweeps above applied\n";
    pf "   with the predecessor's inclusive carries.  Operation order matches\n";
    pf "   the sequential-fallback OCaml backend at the same chunk size. */\n";
    pf "void plr_jit_run_chunked(const %s* restrict x, %s* restrict y,\n\
       \                         int64_t n, int64_t m) {\n"
      ctype ctype;
    pf "  if (m < %d) m = %d;\n" (max 1 k) (max 1 k);
    pf "  if (m > %d) m = %d; /* factor tables cover one chunk of at most m */\n"
      (max 1 fplan.F.m) (max 1 fplan.F.m);
    pf "  int64_t chunks = (n + m - 1) / m;\n";
    pf "  %s g_prev[%d];\n" ctype (max 1 k);
    pf "  int have_prev = 0;\n";
    pf "  for (int64_t c = 0; c < chunks; c++) {\n";
    pf "    const int64_t base = c * m;\n";
    pf "    const int64_t len = (n - base) < m ? (n - base) : m;\n";
    pf "    for (int64_t i = base; i < base + len; i++) {\n";
    pf "      %s\n" acc_decl;
    emit_terms b ~s ~srcx:plain_srcx ~srcy:plain_srcy
      ~guard_tap:(fun t -> if t = 0 then "" else Printf.sprintf "if (i >= %d) " t)
      ~guard_fb:(fun j -> Printf.sprintf "if (i - base >= %d) " j);
    pf "      y[i] = %s;\n" store;
    pf "    }\n";
    if k > 0 then begin
      pf "    if (have_prev) {\n";
      for j = 0 to k - 1 do
        pf "      plr_sweep_%d(y, base, len, g_prev[%d]);\n" j j
      done;
      pf "    }\n";
      pf "    if (c < chunks - 1) {\n";
      pf "      for (int64_t j = 0; j < %d; j++)\n" k;
      pf "        g_prev[j] = (len - 1 - j >= 0) ? y[base + len - 1 - j] : %s;\n"
        (if is_int then "0" else "0.0");
      pf "      have_prev = 1;\n";
      pf "    }\n"
    end
    else pf "    (void)g_prev; (void)have_prev;\n";
    pf "  }\n}\n";
    Buffer.contents b

  let emit_plan (plan : P.t) = emit ~fplan:plan.P.fplan plan.P.signature

  let specialization_summary ~(fplan : F.t) =
    List.init fplan.F.order (fun j ->
        Printf.sprintf "factor list %d: %s" j (F.describe fplan j))
end
