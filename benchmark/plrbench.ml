(* plrbench: the PLR benchmark.  See README.md in this directory. *)

open Bench

let usage =
  {|usage:
  plrbench --workload W --seed N --seconds S --trace 0|1
      one workload; prints its metrics, then one JSON result line
  plrbench run [--seed N] [--reps R] [--traced T] [--seconds S]
               [--out FILE] [--smoke]
      every workload, R untraced and T traced runs each (default 1, 0)
  plrbench trace [--seed N] [--seconds S] [--out FILE]
      one traced run per workload (default 12 s: 6 untraced, 6 traced)
  plrbench compare A.json[,A2.json...] B.json[,B2.json...]
      medians, deltas and verdicts of two sets of run files
every form takes [--spec FILE] (default BENCHMARK.json)|}

let value_flags =
  [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--reps"; "--traced";
    "--spec" ]

let bool_flags = [ "--smoke"; "--self-test"; "--setup-only" ]

let parse args =
  let rec go acc = function
    | [] -> List.rev acc
    | f :: v :: rest when List.mem f value_flags -> go ((f, v) :: acc) rest
    | f :: rest when List.mem f bool_flags -> go ((f, "") :: acc) rest
    | a :: _ -> raise (Arg.Bad ("unexpected argument " ^ a))
  in
  go [] args

let num conv opts flag ~default =
  match List.assoc_opt flag opts with
  | None -> default
  | Some v -> (
      match conv v with
      | Some x -> x
      | None -> raise (Arg.Bad (Printf.sprintf "%s: not a number: %s" flag v)))

let int_flag = num int_of_string_opt
let float_flag = num float_of_string_opt
let has opts flag = List.mem_assoc flag opts

let spec_of opts =
  Spec.load (Option.value ~default:"BENCHMARK.json" (List.assoc_opt "--spec" opts))

let ctx_of opts ~seconds =
  {
    seed = int_flag opts "--seed" ~default:2026;
    seconds;
    smoke = has opts "--smoke";
    traced = int_flag opts "--trace" ~default:0 = 1;
    setup_only = has opts "--setup-only";
    self_test = has opts "--self-test";
  }

let setup_samples (ctx : ctx) = if ctx.smoke then 1 else 5

let measure ~workload (ctx : ctx) =
  if ctx.traced then Runner.traced ~workload ctx
  else Runner.end_to_end ~workload ~setup_samples:(setup_samples ctx) ctx

(* The driver form: one workload, one kind of run. *)
let single opts =
  let spec = spec_of opts in
  let workload =
    match List.assoc_opt "--workload" opts with
    | Some w when List.mem w spec.Spec.workloads -> w
    | Some w -> raise (Arg.Bad ("unknown workload " ^ w))
    | None -> raise (Arg.Bad "--workload is required")
  in
  let seconds = float_flag opts "--seconds" ~default:spec.Spec.run_seconds in
  let ctx = ctx_of opts ~seconds in
  let r = measure ~workload ctx in
  Printf.printf "meta %s\n" (Runner.meta ctx);
  Runner.print_lines r;
  print_endline (Runner.result_line spec r);
  if r.Runner.failed > 0 || Runner.missing spec r <> [] then exit 1

(* The smoke check behind [dune runtest]: no failed operation, every
   metric of BENCHMARK.json printed, a results file the repository's own
   JSON reader accepts, and a deliberately corrupted output caught by
   every workload's check. *)
let smoke_checks spec runs ~out base =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (r : Runner.run) ->
      let w = r.Runner.workload in
      if r.Runner.failed > 0 then
        fail "%s: %d failed operations" w r.Runner.failed;
      List.iter (fail "%s: metric %s not printed" w) (Runner.missing spec r))
    runs;
  (match Compare.load out with
  | read when List.length read <> List.length runs ->
      fail "%s holds %d runs, not %d" out (List.length read) (List.length runs)
  | _ -> ()
  | exception Failure e -> fail "%s does not parse: %s" out e);
  List.iter
    (fun workload ->
      let ctx = { base with self_test = true } in
      let r = Runner.end_to_end ~workload ~setup_samples:1 ctx in
      if r.Runner.failed = 0 then
        fail "%s: the corrupted output was not counted as failed" workload)
    (List.sort_uniq compare
       (List.map (fun (r : Runner.run) -> r.Runner.workload) runs));
  List.iter (Printf.printf "smoke: FAILED: %s\n") (List.rev !problems);
  if !problems = [] then print_endline "smoke: ok";
  !problems = []

let run_all opts ~reps ~traced ~seconds =
  let spec = spec_of opts in
  let ctx = ctx_of opts ~seconds:(float_flag opts "--seconds" ~default:seconds) in
  let measured r =
    if not ctx.smoke then Runner.print_lines r;
    r
  in
  let runs =
    List.concat_map
      (fun workload ->
        List.init reps (fun _ -> measured (measure ~workload ctx))
        @ List.init traced (fun _ ->
              measured (measure ~workload { ctx with traced = true })))
      spec.Spec.workloads
  in
  let out =
    match List.assoc_opt "--out" opts with
    | Some f -> f
    | None -> Filename.concat (Runner.tmp_root ()) "results.json"
  in
  Runner.mkdir_p (Filename.dirname out);
  Out_channel.with_open_bin out (fun oc ->
      let runs = List.map Runner.run_json runs in
      output_string oc
        (Runner.json_obj
           [
             ("schema", Runner.json_str "plrbench-1");
             ("meta", Runner.meta ctx);
             ("runs", "[\n  " ^ String.concat ",\n  " runs ^ "\n]");
           ]);
      output_char oc '\n');
  let smoke_ok = (not ctx.smoke) || smoke_checks spec runs ~out ctx in
  let clean (r : Runner.run) = r.Runner.failed = 0 && Runner.missing spec r = [] in
  if not (List.mem_assoc "--out" opts) then Runner.rm_rf (Runner.tmp_root ());
  if not (smoke_ok && List.for_all clean runs) then exit 1

let main args =
  match args with
  | "child" :: rest ->
      let opts = parse rest in
      let required flag =
        match List.assoc_opt flag opts with
        | Some v -> v
        | None -> raise (Arg.Bad (flag ^ " is required"))
      in
      Runner.child ~workload:(required "--workload")
        (ctx_of opts ~seconds:(float_flag opts "--seconds" ~default:1.0))
        ~out:(required "--out")
  | "run" :: rest ->
      let opts = parse rest in
      let smoke = has opts "--smoke" in
      run_all opts
        ~reps:(int_flag opts "--reps" ~default:1)
        ~traced:(int_flag opts "--traced" ~default:(if smoke then 1 else 0))
        ~seconds:(if smoke then 0.5 else (spec_of opts).Spec.run_seconds)
  | "trace" :: rest -> run_all (parse rest) ~reps:0 ~traced:1 ~seconds:12.0
  | "compare" :: a :: b :: rest ->
      if not (Compare.run (spec_of (parse rest)) ~a ~b) then exit 1
  | "compare" :: _ -> raise (Arg.Bad "compare needs two sets of results files")
  | rest -> single (parse rest)

let () =
  match main (List.tl (Array.to_list Sys.argv)) with
  | () -> ()
  | exception Arg.Bad msg ->
      Printf.eprintf "plrbench: %s\n%s\n" msg usage;
      exit 2
  | exception Failure msg ->
      Printf.eprintf "plrbench: %s\n" msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "plrbench: %s\n" msg;
      exit 2
