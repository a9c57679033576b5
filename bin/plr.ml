(* The PLR command-line compiler: parses a recurrence signature, and either
   emits CUDA (like the paper's tool), runs the recurrence on the modeled
   GPU or the multicore CPU backend with validation, or reports the
   compilation plan.

     plr compile '(1: 2, -1)' -o order2.cu
     plr run '(0.2: 0.8)' -n 1000000 --backend sim
     plr info '(1: 0, 1)'
*)

module Scalar = Plr_util.Scalar
module Spec = Plr_gpusim.Spec
module Trace = Plr_trace.Trace
module Chrome = Plr_trace.Chrome
module Report = Plr_trace.Report

let spec = Spec.titan_x

(* Shared by `plr trace` and the --trace flags: harvest the recorder,
   export Chrome trace-event JSON (atomically), and tell the user where
   to load it. *)
let export_trace ~path =
  Trace.set_enabled false;
  let events = Trace.collect () in
  let doc = Chrome.to_string events in
  Plr_util.Fileio.atomic_write_string ~path doc;
  Printf.printf "wrote %s (%d events%s; load at ui.perfetto.dev)\n" path
    (List.length events)
    (match Trace.dropped () with
    | 0 -> ""
    | d -> Printf.sprintf ", %d dropped" d);
  (events, doc)

(* Run [f] with the trace sink enabled when [path] is given, exporting
   on the way out (including the failure path, so a crashed run still
   leaves a loadable trace of how far it got). *)
let with_trace path f =
  match path with
  | None -> f ()
  | Some path ->
      Trace.reset ();
      Trace.set_enabled true;
      (match f () with
      | r ->
          ignore (export_trace ~path);
          r
      | exception e ->
          ignore (export_trace ~path);
          raise e)

(* Dispatch between the integer and floating-point pipelines based on the
   signature's coefficients, like the paper's PLR does. *)
type domain = Auto | Force_int | Force_float

let resolve_domain domain s =
  match domain with
  | Force_float -> `Float
  | Force_int -> (
      match Parse.to_int_signature s with
      | Some is -> `Int is
      | None -> failwith "signature has non-integral coefficients; use --float")
  | Auto -> (
      match Parse.to_int_signature s with Some is -> `Int is | None -> `Float)

let parse_signature text =
  match Parse.signature text with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "%a" Parse.pp_error e)

(* A user mistake (malformed signature, bad flag value) must end as a
   one-line diagnostic and exit code 2 — never an OCaml backtrace. *)
let require_positive name v =
  if v <= 0 then failwith (Printf.sprintf "%s must be positive (got %d)" name v)

let require_positive_opt name = Option.iter (require_positive name)

(* ------------------------------------------------------------- compile *)

module Emit_int = Plr_codegen.Emit.Make (Scalar.Int)
module Emit_f32 = Plr_codegen.Emit.Make (Scalar.F32)
module Plan_int = Emit_int.P
module Plan_f32 = Emit_f32.P
module Cemit_int = Plr_codegen.Cemit.Make (Scalar.Int)
module Cemit_f32 = Plr_codegen.Cemit.Make (Scalar.F32)
module Jit_int = Plr_jit.Backend.Make (Scalar.Int)
module Jit_f32 = Plr_jit.Backend.Make (Scalar.F32)

let cmd_compile text output domain n quiet =
  require_positive "-n" n;
  let s = parse_signature text in
  let cuda, summary =
    match resolve_domain domain s with
    | `Int is ->
        let plan = Plan_int.compile ~spec ~n is in
        (Emit_int.cuda plan, Emit_int.specialization_summary plan)
    | `Float ->
        let fs = Signature.map Plr_util.F32.round s in
        let plan = Plan_f32.compile ~spec ~n fs in
        (Emit_f32.cuda plan, Emit_f32.specialization_summary plan)
  in
  (match output with
  | None -> print_string cuda
  | Some path ->
      let oc = open_out path in
      output_string oc cuda;
      close_out oc;
      if not quiet then Printf.printf "wrote %s (%d bytes)\n" path (String.length cuda));
  if not quiet && output <> None then
    List.iter (fun line -> Printf.printf "  %s\n" line) summary

(* ----------------------------------------------------------------- run *)

module Engine_int = Plr_core.Engine.Make (Scalar.Int)
module Engine_f32 = Plr_core.Engine.Make (Scalar.F32)
module Serial_int = Plr_serial.Serial.Make (Scalar.Int)
module Serial_f32 = Plr_serial.Serial.Make (Scalar.F32)
module Multi_int = Plr_multicore.Multicore.Make (Scalar.Int)
module Multi_f32 = Plr_multicore.Multicore.Make (Scalar.F32)
module Fp_int = Plr_factors.Factor_plan.Make (Scalar.Int)
module Fp_f32 = Plr_factors.Factor_plan.Make (Scalar.F32)

type backend = Sim | Cpu | Serial_backend | Jit_backend

let random_int_input n =
  let gen = Plr_util.Splitmix.create 1234 in
  Array.init n (fun _ -> Plr_util.Splitmix.int_in gen ~lo:(-100) ~hi:100)

let random_f32_input n =
  let gen = Plr_util.Splitmix.create 1234 in
  Array.init n (fun _ -> Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0)

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The fastest of three calls of [f], each after [settle ()], and the
   last call's result.  A backend's first call also pays for waking the
   pool's domains and for cold caches.  The previous result is dropped
   before [settle] runs, so a collection there can free it. *)
let time_best ~settle f =
  let best = ref infinity and last = ref None in
  for _ = 1 to 3 do
    last := None;
    settle ();
    let r, dt = time_wall f in
    last := Some r;
    best := Float.min !best dt
  done;
  (Option.get !last, !best)

(* The time of the fastest OCaml serial evaluator: the flat kernel into a
   preallocated output.  The boxed [Serial.full] is the oracle, used for
   the [validation:] line only. *)
let time_serial full_into zero s input =
  let dst = Array.make (Array.length input) zero in
  snd (time_best ~settle:ignore (fun () -> full_into s ~src:input ~dst))

(* One backend against the flat serial kernel, each timed alike: [into]
   writes a preallocated output of [n], as [time_serial] does.  [fresh]
   is the same backend allocating its own output.  Each of its calls
   follows a full major collection, as a batch round's does, so the
   outputs freed before it are there to reuse; its line shows what the
   allocation adds.  Both outputs are validated. *)
let report_timed ~label ~zero ~into ~fresh ~serial ~validate n =
  let dst = Array.make n zero in
  let (), dt = time_best ~settle:ignore (fun () -> into dst) in
  let st = serial () in
  let output, ft = time_best ~settle:Gc.full_major fresh in
  Printf.printf "%s: %.3f ms, serial: %.3f ms, speedup %.2fx\n" label
    (dt *. 1e3) (st *. 1e3) (st /. dt);
  Printf.printf "fresh output: %.3f ms\n" (ft *. 1e3);
  Printf.printf "validation: %s\n"
    (match Result.bind (validate dst) (fun () -> validate output) with
    | Ok () -> "PASSED"
    | Error m -> "FAILED — " ^ m)

(* Named factor-specialization toggles for `run`.  The names match the
   flags Opts.pp prints. *)
let opt_names = [ "shared-cache"; "all-equal"; "zero-one"; "repeat"; "ftz" ]

let set_opt (o : Plr_core.Opts.t) name v =
  match name with
  | "shared-cache" -> { o with Plr_core.Opts.cache_factors_in_shared = v }
  | "all-equal" -> { o with Plr_core.Opts.specialize_all_equal = v }
  | "zero-one" -> { o with Plr_core.Opts.specialize_zero_one = v }
  | "repeat" -> { o with Plr_core.Opts.compress_repeating = v }
  | "ftz" -> { o with Plr_core.Opts.flush_denormals = v }
  | _ ->
      failwith
        (Printf.sprintf "unknown optimization %S (expected one of: %s)" name
           (String.concat ", " opt_names))

let opts_of_flags ~opts_off ~ons ~offs =
  let base = if opts_off then Plr_core.Opts.all_off else Plr_core.Opts.all_on in
  let o = List.fold_left (fun o name -> set_opt o name true) base ons in
  List.fold_left (fun o name -> set_opt o name false) o offs

let pool_size domains = Plr_exec.Pool.size (Plr_exec.Pool.get ?domains ())

let cmd_run text n backend domain domains opts_off ons offs =
  require_positive "-n" n;
  require_positive_opt "--domains" domains;
  let s = parse_signature text in
  let opts = opts_of_flags ~opts_off ~ons ~offs in
  Format.printf "opts: %a@." Plr_core.Opts.pp opts;
  let report_sim ~kind_label ~throughput ~time_s ~valid =
    Printf.printf "backend: modeled GPU (%s)\n" spec.Spec.name;
    Printf.printf "domain: %s, n = %d\n" kind_label n;
    Printf.printf "modeled kernel time: %.3f ms\n" (time_s *. 1e3);
    Printf.printf "modeled throughput: %.2f G words/s\n" (throughput /. 1e9);
    Printf.printf "validation vs serial: %s\n"
      (match valid with Ok () -> "PASSED" | Error m -> "FAILED — " ^ m)
  in
  match (resolve_domain domain s, backend) with
  | `Int is, Sim ->
      let input = random_int_input n in
      let r = Engine_int.run ~opts ~spec is input in
      let expected = Serial_int.full is input in
      report_sim ~kind_label:"int32" ~throughput:r.Engine_int.throughput
        ~time_s:r.Engine_int.time_s
        ~valid:(Serial_int.validate ~expected r.Engine_int.output)
  | `Float, Sim ->
      let fs = Signature.map Plr_util.F32.round s in
      let input = random_f32_input n in
      let r = Engine_f32.run ~opts ~spec fs input in
      let expected = Serial_f32.full fs input in
      report_sim ~kind_label:"float32" ~throughput:r.Engine_f32.throughput
        ~time_s:r.Engine_f32.time_s
        ~valid:(Serial_f32.validate ~expected r.Engine_f32.output)
  | `Int is, Cpu ->
      let input = random_int_input n in
      let pool = Plr_exec.Pool.get ?domains () in
      let m =
        Multi_int.default_chunk_size ~domains:(Plr_exec.Pool.size pool) n
      in
      let plan =
        Fp_int.of_feedback ~opts
          ~max_period:Plr_multicore.Multicore.cpu_max_period
          ~feedback:is.Signature.feedback ~m ()
      in
      let expected = lazy (Serial_int.full is input) in
      Printf.printf "backend: multicore CPU (%d domains)\n"
        (Plr_exec.Pool.size pool);
      report_timed ~label:"parallel" ~zero:0 n
        ~into:(fun dst ->
          Multi_int.run_into ~opts ~plan ~pool is ~src:input ~dst)
        ~fresh:(fun () -> Multi_int.run ~opts ~plan ~pool is input)
        ~serial:(fun () -> time_serial Serial_int.full_into 0 is input)
        ~validate:(fun y ->
          Serial_int.validate ~expected:(Lazy.force expected) y)
  | `Float, Cpu ->
      let fs = Signature.map Plr_util.F32.round s in
      let input = random_f32_input n in
      let pool = Plr_exec.Pool.get ?domains () in
      let m =
        Multi_f32.default_chunk_size ~domains:(Plr_exec.Pool.size pool) n
      in
      let plan =
        Fp_f32.of_feedback ~opts
          ~max_period:Plr_multicore.Multicore.cpu_max_period
          ~feedback:fs.Signature.feedback ~m ()
      in
      let expected = lazy (Serial_f32.full fs input) in
      Printf.printf "backend: multicore CPU (%d domains)\n"
        (Plr_exec.Pool.size pool);
      report_timed ~label:"parallel" ~zero:0.0 n
        ~into:(fun dst ->
          Multi_f32.run_into ~opts ~plan ~pool fs ~src:input ~dst)
        ~fresh:(fun () -> Multi_f32.run ~opts ~plan ~pool fs input)
        ~serial:(fun () -> time_serial Serial_f32.full_into 0.0 fs input)
        ~validate:(fun y ->
          Serial_f32.validate ~expected:(Lazy.force expected) y)
  | `Int is, Serial_backend ->
      let input = random_int_input n in
      let st = time_serial Serial_int.full_into 0 is input in
      Printf.printf "serial: %.3f ms (%.2f M words/s)\n" (st *. 1e3)
        (float_of_int n /. st /. 1e6)
  | `Float, Serial_backend ->
      let fs = Signature.map Plr_util.F32.round s in
      let input = random_f32_input n in
      let st = time_serial Serial_f32.full_into 0.0 fs input in
      Printf.printf "serial: %.3f ms (%.2f M words/s)\n" (st *. 1e3)
        (float_of_int n /. st /. 1e6)
  | `Int is, Jit_backend ->
      let input = random_int_input n in
      let m = Multi_int.default_chunk_size ~domains:(pool_size domains) n in
      let fplan =
        Jit_int.F.of_feedback ~opts ~feedback:is.Signature.feedback ~m ()
      in
      (match Jit_int.prepare ~mode:`Sync ~fplan is with
      | None ->
          Printf.printf
            "backend: jit unavailable (disabled, or no C toolchain) — \
             serial fallback\n";
          let st = time_serial Serial_int.full_into 0 is input in
          Printf.printf "serial: %.3f ms\n" (st *. 1e3)
      | Some jb -> (
          (* The first call verifies the kernel bitwise against the
             serial reference; the timed calls follow it. *)
          match Jit_int.run jb input with
          | None ->
              Printf.printf "backend: jit build failed — serial fallback\n";
              let st = time_serial Serial_int.full_into 0 is input in
              Printf.printf "serial: %.3f ms\n" (st *. 1e3)
          | Some _ ->
              let expected = lazy (Serial_int.full is input) in
              Printf.printf "backend: native JIT (C, verified bitwise)\n";
              report_timed ~label:"jit" ~zero:0 n
                ~into:(fun dst ->
                  ignore (Jit_int.run_into jb ~src:input ~dst : bool))
                ~fresh:(fun () -> Option.get (Jit_int.run jb input))
                ~serial:(fun () -> time_serial Serial_int.full_into 0 is input)
                ~validate:(fun y ->
                  Serial_int.validate ~expected:(Lazy.force expected) y)))
  | `Float, Jit_backend ->
      let fs = Signature.map Plr_util.F32.round s in
      let input = random_f32_input n in
      let m = Multi_f32.default_chunk_size ~domains:(pool_size domains) n in
      let fplan =
        Jit_f32.F.of_feedback ~opts ~feedback:fs.Signature.feedback ~m ()
      in
      (match Jit_f32.prepare ~mode:`Sync ~fplan fs with
      | None ->
          Printf.printf
            "backend: jit unavailable (disabled, or no C toolchain) — \
             serial fallback\n";
          let st = time_serial Serial_f32.full_into 0.0 fs input in
          Printf.printf "serial: %.3f ms\n" (st *. 1e3)
      | Some jb -> (
          match Jit_f32.run jb input with
          | None ->
              Printf.printf "backend: jit build failed — serial fallback\n";
              let st = time_serial Serial_f32.full_into 0.0 fs input in
              Printf.printf "serial: %.3f ms\n" (st *. 1e3)
          | Some _ ->
              let expected = lazy (Serial_f32.full fs input) in
              Printf.printf "backend: native JIT (C, verified bitwise)\n";
              report_timed ~label:"jit" ~zero:0.0 n
                ~into:(fun dst ->
                  ignore (Jit_f32.run_into jb ~src:input ~dst : bool))
                ~fresh:(fun () -> Option.get (Jit_f32.run jb input))
                ~serial:(fun () ->
                  time_serial Serial_f32.full_into 0.0 fs input)
                ~validate:(fun y ->
                  Serial_f32.validate ~expected:(Lazy.force expected) y)))

(* ------------------------------------------------------------- emit *)

(* `plr emit SIG --target c|cuda`: print the generated source for either
   back end.  The C target shares the JIT's emitter, so what this prints
   is exactly the translation unit the JIT compiles and caches. *)
let cmd_emit text target domain n =
  require_positive "-n" n;
  let s = parse_signature text in
  let source =
    match target with
    | "cuda" -> (
        match resolve_domain domain s with
        | `Int is -> Emit_int.cuda (Plan_int.compile ~spec ~n is)
        | `Float ->
            let fs = Signature.map Plr_util.F32.round s in
            Emit_f32.cuda (Plan_f32.compile ~spec ~n fs))
    | "c" -> (
        let m =
          Multi_int.default_chunk_size
            ~domains:(Domain.recommended_domain_count ())
            n
        in
        match resolve_domain domain s with
        | `Int is ->
            Cemit_int.emit
              ~fplan:
                (Cemit_int.P.F.of_feedback ~feedback:is.Signature.feedback ~m
                   ())
              is
        | `Float ->
            let fs = Signature.map Plr_util.F32.round s in
            Cemit_f32.emit
              ~fplan:
                (Cemit_f32.P.F.of_feedback ~feedback:fs.Signature.feedback ~m
                   ())
              fs)
    | t -> failwith (Printf.sprintf "unknown --target %S (expected c or cuda)" t)
  in
  print_string source

(* ---------------------------------------------------------------- info *)

let cmd_info text n domain =
  require_positive "-n" n;
  let s = parse_signature text in
  Printf.printf "signature: %s\n"
    (Signature.to_string (Printf.sprintf "%g") s);
  Printf.printf "classification: %s\n" (Classify.to_string (Classify.classify s));
  Printf.printf "order k = %d, feed-forward taps = %d\n" (Signature.order s)
    (Signature.fir_taps s);
  (match Classify.classify s with
  | Classify.Recursive_filter ->
      Printf.printf "stable: %b\n" (Plr_filters.Response.is_stable s);
      (match Plr_filters.Response.decay_length s ~n:65536 with
      | Some z -> Printf.printf "impulse response decays below float32 at index %d\n" z
      | None -> Printf.printf "impulse response does not decay within 65536 samples\n")
  | _ -> ());
  match resolve_domain domain s with
  | `Int is ->
      let plan = Plan_int.compile ~spec ~n is in
      Format.printf "%a@." Plan_int.pp_summary plan;
      List.iter (Printf.printf "  %s\n") (Emit_int.specialization_summary plan)
  | `Float ->
      let fs = Signature.map Plr_util.F32.round s in
      let plan = Plan_f32.compile ~spec ~n fs in
      Format.printf "%a@." Plan_f32.pp_summary plan;
      List.iter (Printf.printf "  %s\n") (Emit_f32.specialization_summary plan)

(* ------------------------------------------------------------- execute *)

module Kg_int = Plr_codegen.Kernelgen.Make (Scalar.Int)
module Kg_f32 = Plr_codegen.Kernelgen.Make (Scalar.F32)

let cmd_execute text n domain threads x sched trace_path =
  require_positive "-n" n;
  require_positive_opt "--threads" threads;
  require_positive_opt "--x" x;
  let s = parse_signature text in
  let sched =
    match sched with
    | "rr" -> Plr_vm.Interp.Round_robin
    | "reversed" -> Plr_vm.Interp.Reversed
    | other -> (
        match int_of_string_opt other with
        | Some seed -> Plr_vm.Interp.Random seed
        | None -> failwith "--sched expects rr, reversed, or a random seed")
  in
  let describe plan_threads plan_x blocks =
    Printf.printf
      "executing the generated kernel on the SIMT interpreter:\n\
      \  %d blocks x %d threads, %d values/thread, n = %d\n"
      blocks plan_threads plan_x n
  in
  match resolve_domain domain s with
  | `Int is ->
      let input = random_int_input n in
      let plan =
        match (threads, x) with
        | Some t, Some xv -> Kg_int.P.compile_with ~spec ~n ~threads_per_block:t ~x:xv is
        | _ -> Kg_int.P.compile ~spec ~n is
      in
      describe plan.Kg_int.P.threads_per_block plan.Kg_int.P.x (Kg_int.P.num_chunks plan);
      let trace = Option.map (fun _ -> ref []) trace_path in
      let output, dt = time_wall (fun () -> Kg_int.run ~sched ?trace ~spec plan input) in
      (match (trace_path, trace) with
      | Some path, Some events ->
          Plr_vm.Trace.write ~path !events;
          Printf.printf "wrote scheduler trace to %s (load at chrome://tracing)\n" path
      | _ -> ());
      let expected = Serial_int.full is input in
      Printf.printf "interpreted in %.1f ms (wall clock)\n" (dt *. 1e3);
      Printf.printf "validation vs serial: %s\n"
        (match Serial_int.validate ~expected output with
        | Ok () -> "PASSED"
        | Error m -> "FAILED — " ^ m)
  | `Float ->
      let fs = Signature.map Plr_util.F32.round s in
      let input = random_f32_input n in
      let plan =
        match (threads, x) with
        | Some t, Some xv -> Kg_f32.P.compile_with ~spec ~n ~threads_per_block:t ~x:xv fs
        | _ -> Kg_f32.P.compile ~spec ~n fs
      in
      describe plan.Kg_f32.P.threads_per_block plan.Kg_f32.P.x (Kg_f32.P.num_chunks plan);
      let trace = Option.map (fun _ -> ref []) trace_path in
      let output, dt = time_wall (fun () -> Kg_f32.run ~sched ?trace ~spec plan input) in
      (match (trace_path, trace) with
      | Some path, Some events ->
          Plr_vm.Trace.write ~path !events;
          Printf.printf "wrote scheduler trace to %s (load at chrome://tracing)\n" path
      | _ -> ());
      let expected = Serial_f32.full fs input in
      Printf.printf "interpreted in %.1f ms (wall clock)\n" (dt *. 1e3);
      Printf.printf "validation vs serial: %s\n"
        (match Serial_f32.validate ~tol:1e-3 ~expected output with
        | Ok () -> "PASSED"
        | Error m -> "FAILED — " ^ m)

(* ---------------------------------------------------------------- tune *)

module Tune_int = Plr_core.Tune.Make (Scalar.Int)
module Tune_f32 = Plr_core.Tune.Make (Scalar.F32)

let cmd_tune text n domain top =
  require_positive "-n" n;
  require_positive "--top" top;
  let s = parse_signature text in
  let print_int_candidates cands default =
    Printf.printf "%-8s %-4s %-8s %12s %12s\n" "threads" "x" "budget" "G words/s" "vs default";
    let show (c : Tune_int.candidate) =
      Printf.printf "%-8d %-4d %-8d %12.2f %11.2fx\n" c.Tune_int.threads_per_block
        c.Tune_int.x c.Tune_int.cache_budget
        (c.Tune_int.predicted_throughput /. 1e9)
        (c.Tune_int.predicted_throughput /. default.Tune_int.predicted_throughput)
    in
    List.iteri (fun i c -> if i < top then show c) cands;
    Printf.printf "default heuristics (paper §3): threads=%d x=%d budget=%d → %.2f G words/s\n"
      default.Tune_int.threads_per_block default.Tune_int.x
      default.Tune_int.cache_budget
      (default.Tune_int.predicted_throughput /. 1e9)
  in
  let print_f32_candidates cands default =
    Printf.printf "%-8s %-4s %-8s %12s %12s\n" "threads" "x" "budget" "G words/s" "vs default";
    let show (c : Tune_f32.candidate) =
      Printf.printf "%-8d %-4d %-8d %12.2f %11.2fx\n" c.Tune_f32.threads_per_block
        c.Tune_f32.x c.Tune_f32.cache_budget
        (c.Tune_f32.predicted_throughput /. 1e9)
        (c.Tune_f32.predicted_throughput /. default.Tune_f32.predicted_throughput)
    in
    List.iteri (fun i c -> if i < top then show c) cands;
    Printf.printf "default heuristics (paper §3): threads=%d x=%d budget=%d → %.2f G words/s\n"
      default.Tune_f32.threads_per_block default.Tune_f32.x
      default.Tune_f32.cache_budget
      (default.Tune_f32.predicted_throughput /. 1e9)
  in
  match resolve_domain domain s with
  | `Int is ->
      print_int_candidates
        (Tune_int.candidates ~spec ~n is)
        (Tune_int.default_candidate ~spec ~n is)
  | `Float ->
      let fs = Signature.map Plr_util.F32.round s in
      print_f32_candidates
        (Tune_f32.candidates ~spec ~n fs)
        (Tune_f32.default_candidate ~spec ~n fs)

(* --------------------------------------------------------------- check *)

module Stability = Plr_robust.Stability
module Guard = Plr_robust.Guard
module Chaos = Plr_robust.Chaos
module Guard_int = Guard.Make (Scalar.Int)
module Guard_f32 = Guard.Make (Scalar.F32)
module Chaos_int = Chaos.Make (Scalar.Int)
module Chaos_f32 = Chaos.Make (Scalar.F32)

let cmd_check text n domain =
  require_positive "-n" n;
  let s = parse_signature text in
  Format.printf "signature: %s@." (Signature.to_string (Printf.sprintf "%g") s);
  (* the guard re-runs the analysis and prints it as part of its outcome *)
  let ok =
    match resolve_domain domain s with
    | `Int is ->
        let input = random_int_input n in
        let o =
          Guard_int.run ~check:(Guard.Prefix 4096)
            (Guard_int.multicore_runner ()) is input
        in
        Format.printf "guarded run (multicore, int32, n = %d):@.%a@." n
          Guard_int.pp_outcome o;
        o.Guard_int.ok
    | `Float ->
        let fs = Signature.map Plr_util.F32.round s in
        let input = Array.map Plr_util.F32.round (random_f32_input n) in
        let o =
          Guard_f32.run ~check:(Guard.Prefix 4096)
            (Guard_f32.multicore_runner ()) fs input
        in
        Format.printf "guarded run (multicore, float32, n = %d):@.%a@." n
          Guard_f32.pp_outcome o;
        o.Guard_f32.ok
  in
  if not ok then exit 1

(* ------------------------------------------------------------------ at *)

module Comp_int = Plr_robust.Companion.Make (Scalar.Int)
module Comp_f32 = Plr_robust.Companion.Make (Scalar.F32)

(* Single-point query: y(N) by companion-matrix skip-ahead, O(k³ log N)
   instead of O(N) serial replay.  N arrives as a raw string so that a
   malformed index is a one-line exit-2 diagnostic, not a cmdliner
   usage dump or a backtrace. *)
let cmd_at text nstr input domain =
  let n =
    match int_of_string_opt (String.trim nstr) with
    | Some n when n >= 0 -> n
    | Some n -> failwith (Printf.sprintf "N must be non-negative (got %d)" n)
    | None ->
        failwith
          (Printf.sprintf "malformed index %S (expected a non-negative integer)"
             nstr)
  in
  let s = parse_signature text in
  let input_label = match input with `Impulse -> "impulse" | `Step -> "step" in
  match resolve_domain domain s with
  | `Int is ->
      let c = Comp_int.compile is in
      Printf.printf "y(%d) = %s  (%s input, int, order %d)\n" n
        (Scalar.Int.to_string (Comp_int.at ~input c n))
        input_label (Comp_int.order c)
  | `Float ->
      let fs = Signature.map Plr_util.F32.round s in
      let c = Comp_f32.compile fs in
      Printf.printf "y(%d) = %s  (%s input, float32, order %d)\n" n
        (Scalar.F32.to_string (Comp_f32.at ~input c n))
        input_label (Comp_f32.order c)

(* --------------------------------------------------------------- chaos *)

type chaos_target = Both | Only of Chaos.target

module Resilience = Plr_serve.Resilience

(* Chaos through the front door: seeded fault campaigns driven through
   the full session / retry / circuit-breaker stack rather than the bare
   engines.  Exits 1 unless every trial was bitwise identical to the
   serial pass and recovery was actually exercised. *)
let cmd_chaos_serve ?domains ~trials ~seed () =
  let session = Resilience.session_campaign ?domains ~trials ~seed () in
  Format.printf "%-10s @[<v>%a@]@." "session" Resilience.pp_summary session;
  let serve_trials = max 1 (trials / 10) in
  let serve = Resilience.serve_campaign ?domains ~trials:serve_trials ~seed () in
  Format.printf "%-10s @[<v>%a@]@." "serve" Resilience.pp_summary serve;
  let shard_trials = max 1 (trials / 10) in
  let shard = Resilience.shard_campaign ?domains ~trials:shard_trials ~seed () in
  Format.printf "%-10s @[<v>%a@]@." "shard" Resilience.pp_summary shard;
  let merged = Resilience.merge (Resilience.merge session serve) shard in
  if not (Resilience.ok merged) then begin
    Printf.eprintf "plr: %d chaos trial(s) failed\n"
      (List.length merged.Resilience.failures);
    exit 1
  end;
  if merged.Resilience.recoveries = 0 then begin
    Printf.eprintf
      "plr: no session recovery was exercised — the campaign proved nothing\n";
    exit 1
  end;
  if merged.Resilience.steals = 0 then begin
    Printf.eprintf
      "plr: no cross-shard steal was exercised — the shard campaign proved \
       nothing\n";
    exit 1
  end;
  if merged.Resilience.migrations = 0 then begin
    Printf.eprintf
      "plr: no session migration was exercised — the shard campaign proved \
       nothing\n";
    exit 1
  end

let cmd_chaos text n domain domains target trials seed =
  require_positive "-n" n;
  require_positive "--trials" trials;
  require_positive_opt "--domains" domains;
  let s = parse_signature text in
  let targets =
    match target with
    | Both -> [ Chaos.Gpusim; Chaos.Multicore ]
    | Only t -> [ t ]
  in
  let silent = ref 0 in
  List.iter
    (fun t ->
      match resolve_domain domain s with
      | `Int is ->
          let summary, _ =
            Chaos_int.campaign ~trials ~n ?domains ~seed ~target:t is
          in
          Format.printf "%-10s %a@." (Chaos.target_to_string t)
            Chaos_int.pp_summary summary;
          silent := !silent + summary.Chaos.silent
      | `Float ->
          let fs = Signature.map Plr_util.F32.round s in
          let summary, _ =
            Chaos_f32.campaign ~trials ~n ?domains ~seed ~target:t fs
          in
          Format.printf "%-10s %a@." (Chaos.target_to_string t)
            Chaos_f32.pp_summary summary;
          silent := !silent + summary.Chaos.silent)
    targets;
  if !silent > 0 then begin
    Printf.eprintf "plr: %d trial(s) diverged silently\n" !silent;
    exit 1
  end

(* ----------------------------------------------------------------- scan *)

type scan_backend = Scan_serial | Scan_multicore | Scan_sparse

(* Parsed by hand (not a Cmdliner enum) so an unknown backend ends as the
   same one-line exit-2 diagnostic as every other user mistake. *)
let scan_backend_of_string = function
  | "serial" -> Scan_serial
  | "multicore" -> Scan_multicore
  | "sparse" -> Scan_sparse
  | other ->
      failwith
        (Printf.sprintf
           "unknown scan backend %S (expected serial, multicore, or sparse)"
           other)

let parse_stream name text =
  let parts =
    String.split_on_char ',' text |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then failwith (name ^ ": empty coefficient list");
  Array.of_list parts

(* Run-structured coefficient streams: identity runs (a=1, b=0) cover
   roughly [identity] of the stream; the rest draws small dense
   coefficients.  Runs are at least 8 long, the sparse classifier's
   minimum segment. *)
let scan_streams ~n ~identity ~seed =
  let gen = Plr_util.Splitmix.create seed in
  let a = Array.make n 1 and b = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let len = min (n - !i) (8 + Plr_util.Splitmix.int gen ~bound:25) in
    if Plr_util.Splitmix.float gen >= identity then
      for j = !i to !i + len - 1 do
        a.(j) <- Plr_util.Splitmix.int_in gen ~lo:(-2) ~hi:2;
        b.(j) <- Plr_util.Splitmix.int_in gen ~lo:(-9) ~hi:9
      done;
    i := !i + len
  done;
  (a, b)

(* One [plr scan] run over scalar [S]: the chosen backend timed beside
   the serial reference, and checked against it. *)
module Scan_cli (S : Scalar.S) = struct
  module Sc = Plr_scan.Scan.Make (S)

  (* The multicore engine reassociates float carries, so it validates
     to the guard's tolerance; every other backend is bitwise serial,
     and is checked bitwise (structural [=] would take -0.0 for +0.0
     and reject a NaN equal to itself). *)
  let agrees backend (expected : S.t array) (y : S.t array) =
    Array.length y = Array.length expected
    &&
    match (backend, S.rep) with
    | Scan_multicore, Scalar.Float_rep _ ->
        Array.for_all2 (S.approx_equal ~tol:1e-3) expected y
    | _, Scalar.Float_rep _ ->
        Array.for_all2
          (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
          expected y
    | _ -> Array.for_all2 S.equal expected y

  (* Returns the timings, extra report lines and the verdict. *)
  let run backend ?domains ?chunk ?window (a : S.t array) b =
    let expected, st = time_wall (fun () -> Sc.serial a b) in
    let output, dt =
      time_wall (fun () ->
          match backend with
          | Scan_serial -> Sc.serial a b
          | Scan_multicore -> Sc.run ?domains ?chunk_size:chunk ?window a b
          | Scan_sparse -> Sc.sparse a b)
    in
    (* The timed sparse path is the one-shot pass.  The run-length plan
       is built after it, for its summary line, and its output is
       checked too. *)
    let extra, planned =
      match backend with
      | Scan_sparse ->
          let runs = Sc.Runs.build a b in
          ( [
              Printf.sprintf "sparse plan: %d segment(s), %.0f%% identity"
                (Sc.Runs.segments runs)
                (100.0 *. Sc.Runs.identity_fraction runs);
            ],
            [ Sc.sparse ~runs a b ] )
      | _ -> ([], [])
    in
    (dt, st, extra, List.for_all (agrees backend expected) (output :: planned))
end

module Scan_int = Scan_cli (Scalar.Int)
module Scan_f32 = Scan_cli (Scalar.F32)

let cmd_scan n seed identity domain backend_s domains chunk window a_text
    b_text =
  require_positive_opt "--domains" domains;
  require_positive_opt "--chunk" chunk;
  require_positive_opt "--window" window;
  if not (Float.is_finite identity) || identity < 0.0 || identity > 1.0 then
    failwith (Printf.sprintf "--identity must be in [0, 1] (got %g)" identity);
  let backend = scan_backend_of_string backend_s in
  let texts =
    match (a_text, b_text) with
    | None, None ->
        require_positive "-n" n;
        None
    | Some a, Some b -> Some (parse_stream "-a" a, parse_stream "-b" b)
    | Some _, None | None, Some _ ->
        failwith "-a and -b must be given together"
  in
  (match texts with
  | Some (a, b) when Array.length a <> Array.length b ->
      failwith
        (Printf.sprintf "-a has %d coefficient(s) but -b has %d"
           (Array.length a) (Array.length b))
  | _ -> ());
  let use_float =
    match domain with
    | Force_float -> true
    | Force_int -> false
    | Auto -> (
        match texts with
        | None -> false
        | Some (a, b) ->
            let is_int s = int_of_string_opt s <> None in
            not (Array.for_all is_int a && Array.for_all is_int b))
  in
  let int_streams () =
    match texts with
    | None -> scan_streams ~n ~identity ~seed
    | Some (ta, tb) ->
        let conv name s =
          match int_of_string_opt s with
          | Some v -> v
          | None ->
              failwith
                (Printf.sprintf "%s: %S is not an integer (use --float)" name s)
        in
        (Array.map (conv "-a") ta, Array.map (conv "-b") tb)
  in
  let float_streams () =
    match texts with
    | None ->
        let a, b = scan_streams ~n ~identity ~seed in
        (Array.map float_of_int a, Array.map float_of_int b)
    | Some (ta, tb) ->
        let conv name s =
          match float_of_string_opt s with
          | Some v -> Plr_util.F32.round v
          | None ->
              failwith (Printf.sprintf "%s: %S is not a number" name s)
        in
        (Array.map (conv "-a") ta, Array.map (conv "-b") tb)
  in
  let backend_label =
    match backend with
    | Scan_serial -> "serial"
    | Scan_multicore -> Printf.sprintf "multicore (%d domains)" (pool_size domains)
    | Scan_sparse -> "sparse"
  in
  let scalar, nn, (dt, st, extra, ok) =
    if use_float then
      let a, b = float_streams () in
      ( "float32",
        Array.length a,
        Scan_f32.run backend ?domains ?chunk ?window a b )
    else
      let a, b = int_streams () in
      ("int", Array.length a, Scan_int.run backend ?domains ?chunk ?window a b)
  in
  Printf.printf "backend: scan %s\n" backend_label;
  Printf.printf "domain: %s, n = %d\n" scalar nn;
  Printf.printf "scan: %.3f ms (%.1f ns/elem), serial reference: %.3f ms\n"
    (dt *. 1e3)
    (dt *. 1e9 /. float_of_int (max 1 nn))
    (st *. 1e3);
  List.iter (fun line -> Printf.printf "%s\n" line) extra;
  Printf.printf "validation: %s\n"
    (if ok then "PASSED" else "FAILED — diverged from serial");
  if not ok then exit 1

(* --------------------------------------------------------------- trace *)

module Serve = Plr_serve.Serve
module Serve_f32 = Plr_serve.Serve.Make (Scalar.F32)

(* One end-to-end traced exercise of the whole stack: the modeled GPU
   engine (factors + engine spans), the multicore backend on the domain
   pool (multicore + pool spans), and a handful of serving-layer requests
   (serve spans, flow-linked to their pool jobs).  The result is a
   Perfetto-loadable trace plus a self-profile summary. *)
let cmd_trace text n domain domains out =
  require_positive "-n" n;
  require_positive_opt "--domains" domains;
  let s = parse_signature text in
  Trace.reset ();
  Trace.set_enabled true;
  let sim_n = min n 65536 in
  (match resolve_domain domain s with
  | `Int is ->
      ignore (Engine_int.run ~spec is (random_int_input sim_n));
      ignore (Multi_int.run ?domains is (random_int_input n))
  | `Float ->
      let fs = Signature.map Plr_util.F32.round s in
      ignore (Engine_f32.run ~spec fs (random_f32_input sim_n));
      ignore (Multi_f32.run ?domains fs (random_f32_input n)));
  (* Serving layer: recurrence and scan requests big enough for the
     pooled path (so the serve→pool flow arrows appear) plus small
     recurrence requests that run on the calling domain. *)
  let fs = Signature.map Plr_util.F32.round s in
  let server = Serve_f32.create ?domains () in
  let cfg = Serve.default_config in
  let big = max n (cfg.Serve.parallel_threshold + 1) in
  let served = function
    | Ok _ -> ()
    | Error e -> failwith ("serve request failed: " ^ Serve.error_to_string e)
  in
  let x = random_f32_input big in
  for _ = 1 to 2 do
    served (Serve_f32.submit server fs x);
    served (Serve_f32.submit_scan server x x)
  done;
  for _ = 1 to 2 do
    ignore (Serve_f32.submit server fs (random_f32_input 1024))
  done;
  let events, doc = export_trace ~path:out in
  (match Chrome.validate doc with
  | Ok k -> Printf.printf "trace validated: %d trace events\n" k
  | Error e -> failwith ("exported trace failed validation: " ^ e));
  print_newline ();
  Report.render Format.std_formatter (Report.rows events)

(* ------------------------------------------------------------ cmdliner *)

open Cmdliner

let signature_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SIGNATURE"
         ~doc:"Recurrence signature, e.g. '(1: 2, -1)'.")

let domain_arg =
  let flags =
    [ (Force_int, Arg.info [ "int" ] ~doc:"Force the integer pipeline.");
      (Force_float, Arg.info [ "float" ] ~doc:"Force the float32 pipeline.") ]
  in
  Arg.(value & vflag Auto flags)

let n_arg =
  Arg.(value & opt int (1 lsl 20) & info [ "n" ] ~docv:"N"
         ~doc:"Input length the plan/run targets.")

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D"
         ~doc:"Size of the persistent CPU domain pool used by the parallel \
               backends (default: the runtime's recommended domain count).")

let opts_off_arg =
  Arg.(value & flag & info [ "no-opts" ]
         ~doc:"Disable every correction-factor optimization (Figure 10's \
               baseline); individual $(b,--opt) flags re-enable on top.")

let opt_doc = "shared-cache, all-equal, zero-one, repeat, ftz"

let opt_on_arg =
  Arg.(value & opt_all string [] & info [ "opt" ] ~docv:"NAME"
         ~doc:(Printf.sprintf
                 "Enable one factor optimization by name (repeatable): %s. \
                  Applies to every backend."
                 opt_doc))

let opt_off_arg =
  Arg.(value & opt_all string [] & info [ "no-opt" ] ~docv:"NAME"
         ~doc:(Printf.sprintf
                 "Disable one factor optimization by name (repeatable): %s."
                 opt_doc))

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a structured trace of this run (spans from every \
               layer: factors, engine, pool, multicore, guard, serve) and \
               write Chrome trace-event JSON to $(docv); load it at \
               ui.perfetto.dev.")

let wrap f =
  try `Ok (f ()) with
  | Failure m ->
      prerr_endline ("plr: " ^ m);
      exit 2
  | Signature.Invalid m ->
      prerr_endline ("plr: ill-formed signature: " ^ m);
      exit 2
  | Invalid_argument m ->
      prerr_endline ("plr: invalid argument: " ^ m);
      exit 2
  | Sys_error m ->
      prerr_endline ("plr: " ^ m);
      exit 2

let compile_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the CUDA program to $(docv) instead of stdout.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No summary output.") in
  let run text output domain n quiet =
    wrap (fun () -> cmd_compile text output domain n quiet)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Translate a signature into CUDA code")
    Term.(ret (const run $ signature_arg $ output $ domain_arg $ n_arg $ quiet))

let emit_cmd =
  let target =
    Arg.(value & opt string "c" & info [ "target" ] ~docv:"TARGET"
           ~doc:"Code generator to print: $(b,c) (the JIT's native-CPU \
                 translation unit) or $(b,cuda) (the paper's GPU kernel).")
  in
  let run text target domain n = wrap (fun () -> cmd_emit text target domain n) in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Print the generated source for a signature (C or CUDA)")
    Term.(ret (const run $ signature_arg $ target $ domain_arg $ n_arg))

let run_cmd =
  let backend =
    Arg.(value
         & opt
             (enum
                [ ("sim", Sim); ("cpu", Cpu); ("serial", Serial_backend);
                  ("jit", Jit_backend) ])
             Sim
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Execution backend: modeled GPU (sim), multicore CPU, \
                   serial, or the native C JIT (jit — falls back to serial \
                   without a C toolchain).")
  in
  let run text n backend domain domains opts_off ons offs trace_path =
    wrap (fun () ->
        with_trace trace_path (fun () ->
            cmd_run text n backend domain domains opts_off ons offs))
  in
  Cmd.v (Cmd.info "run" ~doc:"Compute a recurrence and validate against the serial code")
    Term.(
      ret
        (const run $ signature_arg $ n_arg $ backend $ domain_arg $ domains_arg
        $ opts_off_arg $ opt_on_arg $ opt_off_arg $ trace_arg))

let info_cmd =
  let run text n domain = wrap (fun () -> cmd_info text n domain) in
  Cmd.v (Cmd.info "info" ~doc:"Show classification, plan, and specializations")
    Term.(ret (const run $ signature_arg $ n_arg $ domain_arg))

let tune_cmd =
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K"
           ~doc:"Show the $(docv) best configurations.")
  in
  let run text n domain top = wrap (fun () -> cmd_tune text n domain top) in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Auto-tune the launch shape against the paper's default heuristics \
          (GPU model)")
    Term.(ret (const run $ signature_arg $ n_arg $ domain_arg $ top))

let execute_cmd =
  let threads =
    Arg.(value & opt (some int) None & info [ "threads" ] ~docv:"T"
           ~doc:"Override the threads-per-block heuristic (power of two).")
  in
  let x =
    Arg.(value & opt (some int) None & info [ "x" ] ~docv:"X"
           ~doc:"Override the values-per-thread heuristic.")
  in
  let sched =
    Arg.(value & opt string "rr" & info [ "sched" ] ~docv:"POLICY"
           ~doc:"Warp scheduling policy: rr, reversed, or a random seed.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome-trace JSON of the warp scheduling to $(docv).")
  in
  let run text n domain threads x sched trace_path =
    wrap (fun () -> cmd_execute text n domain threads x sched trace_path)
  in
  Cmd.v
    (Cmd.info "execute"
       ~doc:"Interpret the generated kernel on the SIMT VM and validate it")
    Term.(
      ret (const run $ signature_arg $ n_arg $ domain_arg $ threads $ x $ sched $ trace))

let check_cmd =
  let run text n domain = wrap (fun () -> cmd_check text n domain) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Stability analysis plus a guarded run: classify the signature \
          (stable/marginal/unstable), predict overflow and decay, then \
          execute with validation and degradation.  Exits 1 when even the \
          final fallback fails its checks.")
    Term.(ret (const run $ signature_arg $ n_arg $ domain_arg))

let chaos_cmd =
  let target =
    Arg.(value
         & opt
             (enum
                [ ("both", Both); ("gpusim", Only Chaos.Gpusim);
                  ("multicore", Only Chaos.Multicore);
                  ("scan", Only Chaos.Scan) ])
             Both
         & info [ "target" ] ~docv:"TARGET"
             ~doc:"Engine to perturb: gpusim, multicore, scan, or both \
                   (= gpusim + multicore).")
  in
  let trials =
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"T"
           ~doc:"Seeded trials per target.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"Base seed; trial i uses seed S+i.")
  in
  let n_arg =
    Arg.(value & opt int 384 & info [ "n" ] ~docv:"N"
           ~doc:"Input length per trial.")
  in
  let signature_opt =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SIGNATURE"
           ~doc:"Recurrence signature, e.g. '(1: 2, -1)'.  Required unless \
                 $(b,--serve) is given (the serve campaign draws its own \
                 random signatures from the seed).")
  in
  let serve =
    Arg.(value & flag & info [ "serve" ]
           ~doc:"Drive the campaign through the front door instead of the \
                 bare engines: streaming sessions with mid-stream crashes, \
                 state corruption, and injected engine faults (recovered \
                 from the last checkpoint plus companion fast-forward), and \
                 retry/circuit-breaker exercises through $(b,submit).  \
                 Every output must be bitwise identical to the serial pass.")
  in
  let scan =
    Arg.(value & flag & info [ "scan" ]
           ~doc:"Target the time-varying scan subsystem (shorthand for \
                 $(b,--target scan)).  Scan trials need no signature: the \
                 coefficient streams are drawn from the trial seeds with \
                 run-length structure, and the subsystem's carry \
                 verification and serial fallback are classified against \
                 the scan serial reference.")
  in
  let run text n domain domains target trials seed serve scan trace_path =
    wrap (fun () ->
        with_trace trace_path (fun () ->
            if serve then begin
              require_positive "--trials" trials;
              require_positive_opt "--domains" domains;
              cmd_chaos_serve ?domains ~trials ~seed ()
            end
            else
              let target = if scan then Only Chaos.Scan else target in
              match text with
              | None when target = Only Chaos.Scan ->
                  (* Scan trials draw their own streams; the signature
                     below is a placeholder the target never reads. *)
                  cmd_chaos "(1: 1)" n domain domains target trials seed
              | None ->
                  failwith
                    "a SIGNATURE is required unless --serve or --scan is given"
              | Some text ->
                  cmd_chaos text n domain domains target trials seed))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault-injection campaign: perturb the look-back \
          pipelines (reordering, delayed flags, dropped or corrupted \
          carries, poisoned chunks) under the guard and report how every \
          trial was classified.  With $(b,--serve), drive seeded faults \
          through the full session/retry/breaker stack instead.  Exits 1 \
          on any silent divergence.")
    Term.(
      ret
        (const run $ signature_opt $ n_arg $ domain_arg $ domains_arg $ target
        $ trials $ seed $ serve $ scan $ trace_arg))

let at_cmd =
  let n_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"N"
           ~doc:"Index to query (a non-negative integer; parsed by plr so a \
                 malformed value is a clean diagnostic).")
  in
  let input =
    Arg.(value
         & opt (enum [ ("impulse", `Impulse); ("step", `Step) ]) `Impulse
         & info [ "input" ] ~docv:"KIND"
             ~doc:"Driving input: a unit impulse at index 0 (default) or a \
                   unit step.")
  in
  let run text nstr input domain = wrap (fun () -> cmd_at text nstr input domain) in
  Cmd.v
    (Cmd.info "at"
       ~doc:
         "Single-point query: compute y(N) of the signature driven by a unit \
          impulse or step in O(k³ log N) via companion-matrix skip-ahead, \
          without materializing the first N elements.")
    Term.(ret (const run $ signature_arg $ n_arg $ input $ domain_arg))

let scan_cmd =
  let n =
    Arg.(value & opt int (1 lsl 20) & info [ "n" ] ~docv:"N"
           ~doc:"Stream length when $(b,-a)/$(b,-b) are not given.")
  in
  let seed =
    Arg.(value & opt int 1234 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for the generated coefficient streams.")
  in
  let identity =
    Arg.(value & opt float 0.0 & info [ "identity" ] ~docv:"FRAC"
           ~doc:"Fraction (in [0, 1]) of the generated stream covered by \
                 identity runs (a=1, b=0) — the sparse fast-path's food.")
  in
  let backend =
    Arg.(value & opt string "multicore" & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Evaluation path: serial (the reference chain), multicore \
                 (chunked look-back engine on the domain pool), or sparse \
                 (run-length fast path).")
  in
  let chunk =
    Arg.(value & opt (some int) None & info [ "chunk" ] ~docv:"C"
           ~doc:"Multicore chunk size (default: the length heuristic).")
  in
  let window =
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"W"
           ~doc:"Multicore look-back window (default: 2x the pool size).")
  in
  let a_arg =
    Arg.(value & opt (some string) None & info [ "a" ] ~docv:"LIST"
           ~doc:"Explicit comma-separated a[i] coefficients (with \
                 $(b,-b); overrides $(b,-n)/$(b,--seed)).")
  in
  let b_arg =
    Arg.(value & opt (some string) None & info [ "b" ] ~docv:"LIST"
           ~doc:"Explicit comma-separated b[i] coefficients (with $(b,-a)).")
  in
  let run n seed identity domain backend domains chunk window a b trace_path =
    wrap (fun () ->
        with_trace trace_path (fun () ->
            cmd_scan n seed identity domain backend domains chunk window a b))
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Evaluate a time-varying first-order recurrence y[i] = a[i]*y[i-1] \
          + b[i] as an associative scan over the (a, b) operator pairs, and \
          validate against the serial reference.  Exits 1 on divergence.")
    Term.(
      ret
        (const run $ n $ seed $ identity $ domain_arg $ backend $ domains_arg
        $ chunk $ window $ a_arg $ b_arg $ trace_arg))

let trace_cmd =
  let out =
    Arg.(value & opt string "trace.json" & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Where to write the Chrome trace-event JSON (default \
                 trace.json).")
  in
  let n =
    Arg.(value & opt int (1 lsl 17) & info [ "n" ] ~docv:"N"
           ~doc:"Input length of the traced runs.")
  in
  let run text n domain domains out =
    wrap (fun () -> cmd_trace text n domain domains out)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the signature through every layer of the stack (modeled GPU \
          engine, multicore pool backend, serving layer) with the trace \
          sink enabled, write a Perfetto-loadable Chrome trace-event JSON, \
          validate it, and print a self-profile summary of the spans.")
    Term.(ret (const run $ signature_arg $ n $ domain_arg $ domains_arg $ out))

let () =
  let doc = "PLR — automatic hierarchical parallelization of linear recurrences" in
  exit
    (Cmd.eval ~term_err:2
       (Cmd.group (Cmd.info "plr" ~doc)
          [ compile_cmd; emit_cmd; run_cmd; scan_cmd; info_cmd; tune_cmd;
            execute_cmd; check_cmd; chaos_cmd; at_cmd; trace_cmd ]))
