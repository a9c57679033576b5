(* Tests for the Plr_trace layer: recorder well-formedness across
   domains, Chrome trace-event export validity with spans from every
   instrumented layer, the zero-allocation disabled path, and the
   serve->pool flow linkage under a concurrent hammer.

   All four tests share the process-wide trace sink, so each one starts
   with [Trace.reset] and ends with the sink disabled. *)

module Trace = Plr_trace.Trace
module Chrome = Plr_trace.Chrome
module Report = Plr_trace.Report
module Json = Plr_trace.Json
module Scalar = Plr_util.Scalar
module Serve = Plr_serve.Serve
module Srv = Serve.Make (Scalar.Int)
module Engine = Plr_core.Engine.Make (Scalar.Int)
module Multi = Plr_multicore.Multicore.Make (Scalar.Int)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let int_sig fwd fbk =
  Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk

let input seed n =
  let g = Plr_util.Splitmix.create seed in
  Array.init n (fun _ -> Plr_util.Splitmix.int_in g ~lo:(-9) ~hi:9)

(* Per-domain event lists, in recorded order. *)
let by_domain events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let prev = try Hashtbl.find tbl e.Trace.domain with Not_found -> [] in
      Hashtbl.replace tbl e.Trace.domain (e :: prev))
    events;
  Hashtbl.fold (fun dom evs acc -> (dom, List.rev evs) :: acc) tbl []

(* ------------------------------------------------------------- nesting *)

(* Spans recorded concurrently from several domains must come out, per
   domain, as a properly nested stream with strictly increasing
   timestamps — the exporter and the self-profile both rely on it. *)
let test_nesting () =
  Trace.reset ();
  Trace.set_enabled true;
  let worker i () =
    for k = 1 to 200 do
      Trace.begin_span2 Trace.App "outer" i k;
      Trace.begin_span Trace.App "inner";
      Trace.instant Trace.App "tick" k 0;
      Trace.end_span ();
      Trace.end_span ()
    done
  in
  let ds = Array.init 3 (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  Array.iter Domain.join ds;
  Trace.set_enabled false;
  let groups = by_domain (Trace.collect ()) in
  check "at least 4 domains recorded" true (List.length groups >= 4);
  List.iter
    (fun (_dom, evs) ->
      let depth =
        List.fold_left
          (fun d e ->
            match e.Trace.kind with
            | Trace.Begin -> d + 1
            | Trace.End ->
                check "no orphan end" true (d > 0);
                d - 1
            | _ -> d)
          0 evs
      in
      check_int "begins and ends balance" 0 depth;
      ignore
        (List.fold_left
           (fun prev e ->
             check "timestamps strictly increase" true (e.Trace.ts > prev);
             e.Trace.ts)
           (-1.0) evs))
    groups;
  check_int "nothing dropped" 0 (Trace.dropped ())

(* ------------------------------------------------------- chrome export *)

(* Drive every instrumented layer (modeled engine, multicore backend,
   serving layer with its pool), export, and hold the exporter to its
   own validator: parseable JSON, strictly ordered per-track timestamps,
   balanced B/E, bound flows — with at least one span from each layer. *)
let test_chrome_export () =
  Trace.reset ();
  Trace.set_enabled true;
  let s = int_sig [| 1 |] [| 2; -1 |] in
  ignore (Engine.run ~spec:Plr_gpusim.Spec.titan_x s (input 1 8192));
  ignore (Multi.run ~domains:3 s (input 2 20000));
  let server = Srv.create ~domains:3 () in
  let big = Serve.default_config.Serve.parallel_threshold + 1 in
  (match Srv.submit server s (input 3 big) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("serve request failed: " ^ Serve.error_to_string e));
  ignore (Srv.submit server s (input 4 256));
  Trace.set_enabled false;
  let events = Trace.collect () in
  let doc = Chrome.to_string ~process_name:"test" events in
  (match Chrome.validate doc with
  | Ok k -> check "validator sees events" true (k > 0)
  | Error e -> Alcotest.fail ("exported trace fails validation: " ^ e));
  (* the validator parses with the same reader; pin the round-trip shape
     here too so a regression points at the exporter, not the validator *)
  (match Json.parse doc with
  | Error e -> Alcotest.fail ("export does not parse: " ^ e)
  | Ok j ->
      check "traceEvents is an array" true
        (match Json.member "traceEvents" j with
        | Some (Json.Arr _) -> true
        | _ -> false));
  let has_span cat =
    List.exists
      (fun e -> e.Trace.kind = Trace.Begin && e.Trace.cat = cat)
      events
  in
  List.iter
    (fun (name, cat) -> check (name ^ " layer traced") true (has_span cat))
    [ ("factors", Trace.Factors); ("engine", Trace.Engine);
      ("pool", Trace.Pool); ("multicore", Trace.Multicore);
      ("serve", Trace.Serve) ];
  (* the self-profile over the same events must cover those layers too *)
  let rows = Report.rows events in
  check "report has rows" true (rows <> []);
  List.iter
    (fun r ->
      check "row totals are sane" true
        (r.Report.total_s >= 0.0 && r.Report.self_s >= -1e-9
        && r.Report.count > 0))
    rows

(* ------------------------------------------------- disabled zero-alloc *)

(* A disabled trace point is a single atomic load; instrumentation left
   in hot loops must not allocate.  Pinned via the minor-heap counter:
   if each of the 10k iterations allocated even one word the delta would
   be >= 10k words, far above the slack for the boxed counter reads. *)
let test_disabled_zero_alloc () =
  Trace.reset ();
  Trace.set_enabled false;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.begin_span2 Trace.App "hot" i 0;
    Trace.instant Trace.App "hot.tick" i 1;
    Trace.end_span ()
  done;
  let after = Gc.minor_words () in
  check "disabled trace points do not allocate" true (after -. before < 256.0)

(* -------------------------------------------------------- flow linkage *)

(* Every serve request opens a flow; the pool worker that picks up its
   chunk tasks closes it.  Under a concurrent hammer with pooled-size
   recurrence and scan requests, at least one flow must demonstrably
   cross domains (finish on a domain other than the one that started
   it), every finish must refer to a started flow id, and the export
   must pass the Chrome validator. *)
(* The JIT reads its switch per call; a kernel already in the on-disk
   cache would answer every request before the pool ran any of them. *)
let with_jit_off f =
  let old = Sys.getenv_opt "PLR_JIT" in
  Unix.putenv "PLR_JIT" "off";
  Fun.protect f ~finally:(fun () ->
      Unix.putenv "PLR_JIT" (Option.value ~default:"" old))

let test_flow_linkage () =
  with_jit_off @@ fun () ->
  Trace.reset ();
  Trace.set_enabled true;
  let config =
    { Serve.default_config with
      Serve.parallel_threshold = 4096;
      chunk_size = 1024 }
  in
  let server = Srv.create ~config ~domains:3 () in
  let s = int_sig [| 1 |] [| 2; -1 |] in
  let x = input 5 40_000 in
  let ok = Atomic.make 0 in
  let client () =
    for _ = 1 to 3 do
      (match Srv.submit server s x with
      | Ok _ -> Atomic.incr ok
      | Error _ -> ());
      match Srv.submit_scan server x x with
      | Ok _ -> Atomic.incr ok
      | Error _ -> ()
    done
  in
  let ds = Array.init 2 (fun _ -> Domain.spawn client) in
  client ();
  Array.iter Domain.join ds;
  Trace.set_enabled false;
  check "some requests served" true (Atomic.get ok > 0);
  let events = Trace.collect () in
  let flow kind =
    List.filter
      (fun e -> e.Trace.kind = kind && e.Trace.name = "serve.flow")
      events
  in
  let starts = flow Trace.Flow_start and finishes = flow Trace.Flow_finish in
  check "flows started" true (starts <> []);
  check "flows finished" true (finishes <> []);
  List.iter
    (fun f ->
      check "every finish has a matching start" true
        (List.exists (fun st -> st.Trace.a0 = f.Trace.a0) starts))
    finishes;
  check "a flow crosses from the request domain to a pool worker" true
    (List.exists
       (fun f ->
         List.exists
           (fun st ->
             st.Trace.a0 = f.Trace.a0 && st.Trace.domain <> f.Trace.domain)
           starts)
       finishes);
  match Chrome.validate (Chrome.to_string ~process_name:"test" events) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("exported trace fails validation: " ^ e)

let () =
  Alcotest.run "plr_trace"
    [
      ( "recorder",
        [
          Alcotest.test_case "cross-domain nesting" `Quick test_nesting;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_zero_alloc;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome json round-trip" `Quick
            test_chrome_export ] );
      ( "flows",
        [ Alcotest.test_case "serve to pool linkage" `Quick
            test_flow_linkage ] );
    ]
