(* Process isolation and the results format.  Every measurement runs in a
   child process of its own whose JIT cache and temporary directory are
   fresh and empty, so one run's compiled kernels never warm the next
   run's set-up; the directory is deleted when the child has ended. *)

open Bench
module Json = Plr_trace.Json

module type WORKLOAD = sig
  val name : string

  val events_per_s : int
  (** trace events one of its domains records per second, about *)

  val run : ctx -> result
end

let workloads : (module WORKLOAD) list =
  [
    (module Const_batch);
    (module Scan_batch);
    (module Serve_open);
    (module Serve_sessions);
  ]

let find name =
  match
    List.find_opt (fun (module W : WORKLOAD) -> W.name = name) workloads
  with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

(* ---------------------------------------------------------------- JSON *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  let field (k, v) = json_str k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let metrics_json ms =
  json_obj
    (List.map
       (fun m ->
         ( m.name,
           json_obj [ ("value", json_num m.value); ("unit", json_str m.unit_) ]
         ))
       ms)

let metrics_of_json j =
  match j with
  | Json.Obj fields ->
      List.filter_map
        (fun (name, v) ->
          match
            ( Option.bind (Json.member "value" v) Json.num,
              Option.bind (Json.member "unit" v) Json.str )
          with
          | Some value, Some unit_ -> Some { name; value; unit_ }
          | _ -> None)
        fields
  | _ -> []

let int_field name j =
  match Option.bind (Json.member name j) Json.num with
  | Some v -> int_of_float v
  | None -> 0

let metrics_field j =
  metrics_of_json (Option.value ~default:Json.Null (Json.member "metrics" j))

let parse_file path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

(* --------------------------------------------------------------- child *)

let child ~workload (ctx : ctx) ~out =
  let (module W) = find workload in
  (* Rings sized with headroom, so that no event is dropped. *)
  if ctx.traced then
    Trace.configure
      ~capacity:
        (max 65536
           (int_of_float (ctx.seconds *. float_of_int W.events_per_s *. 1.5)))
      ();
  Atomic.set tamper ctx.self_test;
  let r = W.run ctx in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc
        (json_obj
           [
             ("setup_s", json_num r.setup_s);
             ("attempted", string_of_int r.attempted);
             ("failed", string_of_int r.failed);
             ("metrics", metrics_json r.metrics);
           ]))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let tmp_root () = Filename.concat (Sys.getcwd ()) ".plrbench"
let spawned = ref 0

let rec waitpid pid =
  try Unix.waitpid [ Unix.WNOHANG ] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run one child to completion (killing it two minutes past its timed
   phase) and read back its result; the child's output goes to our
   stderr, so our stdout carries only the benchmark's own lines. *)
let spawn ~workload (ctx : ctx) =
  incr spawned;
  let dir =
    Filename.concat (tmp_root ())
      (Printf.sprintf "%d-%d" (Unix.getpid ()) !spawned)
  in
  rm_rf dir;
  mkdir_p dir;
  let out = Filename.concat dir "result.json" in
  let inherited =
    List.filter
      (fun kv ->
        not (has_prefix "PLR_JIT_CACHE=" kv || has_prefix "TMPDIR=" kv))
      (Array.to_list (Unix.environment ()))
  in
  let env =
    Array.of_list
      (("PLR_JIT_CACHE=" ^ Filename.concat dir "jit")
      :: ("TMPDIR=" ^ dir) :: inherited)
  in
  let flag b name = if b then [ name ] else [] in
  let argv =
    [
      Sys.executable_name; "child"; "--out"; out; "--workload"; workload;
      "--seed"; string_of_int ctx.seed;
      "--seconds"; Printf.sprintf "%.17g" ctx.seconds;
      "--trace"; (if ctx.traced then "1" else "0");
    ]
    @ flag ctx.smoke "--smoke"
    @ flag ctx.setup_only "--setup-only"
    @ flag ctx.self_test "--self-test"
  in
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list argv) env
      Unix.stdin Unix.stderr Unix.stderr
  in
  let limit = now () +. ctx.seconds +. 120.0 in
  let rec wait () =
    match waitpid pid with
    | 0, _ when now () > limit ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Error "timed out"
    | 0, _ ->
        Unix.sleepf 0.05;
        wait ()
    | _, Unix.WEXITED 0 -> (
        let j = parse_file out in
        match Option.bind (Json.member "setup_s" j) Json.num with
        | Some setup_s ->
            Ok
              {
                setup_s;
                attempted = int_field "attempted" j;
                failed = int_field "failed" j;
                metrics = metrics_field j;
              }
        | None -> Error "no set-up time")
    | _, Unix.WEXITED c -> Error (Printf.sprintf "exited with %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "killed by signal %d" s)
  in
  let r = wait () in
  rm_rf dir;
  (try Unix.rmdir (tmp_root ()) with Unix.Unix_error _ -> ());
  match r with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "%s child %s" workload e)

(* --------------------------------------------------------- measurement *)

type run = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let value name ms =
  List.find_map (fun m -> if m.name = name then Some m.value else None) ms

(* An untraced run: [setup_samples] set-ups, each in a process of its
   own, one of which also runs the timed phase; [setup_s] is their
   median.  The set-up-only samples are split around the timed phase, so
   that a slow spell of the machine a few seconds long cannot hold all of
   them. *)
let end_to_end ~workload ~setup_samples (ctx : ctx) =
  let setups k =
    List.init k (fun _ -> spawn ~workload { ctx with setup_only = true })
  in
  let before = setups ((setup_samples - 1) / 2) in
  let main = spawn ~workload ctx in
  let after = setups (setup_samples - 1 - List.length before) in
  let samples = List.map (fun (r : result) -> r.setup_s) (main :: before @ after) in
  {
    workload;
    traced = false;
    attempted = main.attempted;
    failed = main.failed;
    metrics = metric "setup_s" "s" (median (Array.of_list samples)) :: main.metrics;
  }

(* A traced run: half the time untraced, half traced; the ratio of their
   per-element operation times is the tracing overhead. *)
let traced ~workload (ctx : ctx) =
  let ctx = { ctx with seconds = ctx.seconds /. 2.0; traced = false } in
  let plain = spawn ~workload ctx in
  let tr = spawn ~workload { ctx with traced = true } in
  let overhead =
    match (value "op.gelem_s" plain.metrics, value "op.gelem_s" tr.metrics) with
    | Some a, Some b when b > 0.0 -> (a /. b) -. 1.0
    | _ -> Float.nan
  in
  {
    workload;
    traced = true;
    attempted = plain.attempted + tr.attempted;
    failed = plain.failed + tr.failed;
    metrics = tr.metrics @ [ metric "trace.overhead_frac" "frac" overhead ];
  }

let print_lines r =
  List.iter
    (fun m ->
      Printf.printf "%s %s %.6g %s\n" r.workload m.name m.value m.unit_)
    (r.metrics
    @ [
        metric "ops" "count" (float_of_int r.attempted);
        metric "ops_failed" "count" (float_of_int r.failed);
      ]);
  flush stdout

(* The spec metrics this run should carry, and those it lacks. *)
let expected (spec : Spec.t) r =
  if r.traced then spec.Spec.per_layer else spec.Spec.end_to_end

let missing spec r =
  List.filter_map
    (fun (d : Spec.mdef) ->
      match value d.Spec.name r.metrics with
      | Some v when Float.is_finite v -> None
      | _ -> Some d.Spec.name)
    (expected spec r)

let run_json r =
  json_obj
    [
      ("workload", json_str r.workload);
      ("traced", string_of_bool r.traced);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json r.metrics);
    ]

let run_of_json j =
  {
    workload =
      Option.value ~default:"" (Option.bind (Json.member "workload" j) Json.str);
    traced = Json.member "traced" j = Some (Json.Bool true);
    attempted = int_field "attempted" j;
    failed = int_field "failed" j;
    metrics = metrics_field j;
  }

(* The single result line the benchmark contract asks for: exactly the
   spec's metrics for this kind of run. *)
let result_line spec r =
  let ms =
    List.filter_map
      (fun (d : Spec.mdef) ->
        Option.map
          (fun v -> metric d.Spec.name d.Spec.unit_ v)
          (value d.Spec.name r.metrics))
      (expected spec r)
  in
  json_obj
    [
      ("correct", string_of_bool (r.failed = 0 && missing spec r = []));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json ms);
    ]

(* ---------------------------------------------------------- provenance *)

let capture prog args =
  try
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid =
      Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w null
    in
    Unix.close w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let s = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Some (String.trim s)
    | _ -> None
  with Unix.Unix_error _ -> None

(* Git is asked only when the working directory is itself a checkout, so
   that nothing above it is read. *)
let git args = if Sys.file_exists ".git" then capture "git" args else None

let meta (ctx : ctx) =
  let opt = function Some s -> json_str s | None -> "null" in
  let first_line s = List.hd (String.split_on_char '\n' s) in
  json_obj
    [
      ("git_rev", opt (git [ "rev-parse"; "HEAD" ]));
      ( "git_dirty",
        match git [ "status"; "--porcelain" ] with
        | Some s -> string_of_bool (s <> "")
        | None -> "null" );
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("cc", opt (Option.map first_line (capture "cc" [ "--version" ])));
      ("seed", string_of_int ctx.seed);
      ("n_batch", string_of_int (batch_n ctx));
      ("seconds", json_num ctx.seconds);
    ]
