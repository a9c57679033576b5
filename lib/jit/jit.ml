(* The JIT build pipeline and cache: compile emitted C with the system cc
   into a shared object, dlopen it, and hand out function pointers.

   Everything here is opportunistic.  A missing compiler, a failed build,
   or a failed dlopen produces [Failed] — never an exception on the
   request path — and the caller degrades to the OCaml kernels.

   Two cache levels keep cc invocations rare:
   - an on-disk cache ([cache_dir], override with [PLR_JIT_CACHE]) keyed
     by the digest of (source, compiler, flags): a warm process — or a
     different process on the same machine — finds the [.so] already
     present and dlopens it without ever invoking cc (pinned by
     [cc_invocations] in the tests);
   - an in-process registry of build cells keyed by the same digest, so
     concurrent plan builds for one signature share a single build.

   Environment knobs, read per call so tests can flip them:
   - [PLR_JIT=off|0|false|no] disables the JIT entirely;
   - [PLR_JIT_CC] overrides the compiler (default [cc]); pointing it at a
     nonexistent file exercises the no-toolchain degradation path;
   - [PLR_JIT_CACHE] overrides the cache directory. *)

module Trace = Plr_trace.Trace

type fns = {
  handle : nativeint;  (* dlopen handle (kept for the process lifetime) *)
  run : nativeint;  (* void plr_jit_run(const T*, T*, int64_t) *)
  run_chunked : nativeint;
      (* void plr_jit_run_chunked(const T*, T*, int64_t, int64_t) *)
  run_tagged : nativeint;
      (* void plr_jit_run_tagged(...) — the kernel over OCaml's tagged
         int-array representation; 0 for float units *)
}

type state = Building | Ready of fns | Failed of string

(* ---- FFI ---- *)

external dlopen_so : string -> nativeint = "plr_jit_stub_dlopen"
external dlerror : unit -> string = "plr_jit_stub_dlerror"
external dlsym_fn : nativeint -> string -> nativeint = "plr_jit_stub_dlsym"
external dlclose_so : nativeint -> unit = "plr_jit_stub_dlclose"

external call_run_chunked :
  nativeint ->
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t ->
  ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int ->
  unit = "plr_jit_stub_call_run_chunked"

(* The call directly on OCaml array payloads (flat doubles for float
   arrays; tagged words for int arrays, paired with the kernels'
   [_tagged] entry).  The stub keeps the runtime lock, so the arrays
   cannot move mid-call. *)
external call_run_direct : nativeint -> 'a array -> 'a array -> int -> unit
  = "plr_jit_stub_call_run_direct"
[@@noalloc]

(* ---- configuration (environment read per call, never memoized) ---- *)

let enabled () =
  match Sys.getenv_opt "PLR_JIT" with
  | Some ("off" | "0" | "false" | "no") -> false
  | _ -> true

let cc () =
  match Sys.getenv_opt "PLR_JIT_CC" with
  | Some c when c <> "" -> c
  | _ -> "cc"

(* Contraction and fast-math stay off: the contract is bitwise identity
   with the OCaml serial reference, and fused multiply-adds or value
   re-association would break it. *)
let cflags =
  [ "-O2"; "-fPIC"; "-shared"; "-fno-fast-math"; "-ffp-contract=off" ]

let cache_dir () =
  match Sys.getenv_opt "PLR_JIT_CACHE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "plr-jit"

let resolve_cc () =
  let c = cc () in
  if String.contains c '/' then if Sys.file_exists c then Some c else None
  else
    let path = Option.value ~default:"" (Sys.getenv_opt "PATH") in
    String.split_on_char ':' path
    |> List.find_map (fun d ->
           if d = "" then None
           else
             let p = Filename.concat d c in
             if Sys.file_exists p then Some p else None)

let toolchain_available () = Option.is_some (resolve_cc ())

let digest source =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (source :: cc () :: cflags)))

let cache_paths source =
  let d = digest source in
  let dir = cache_dir () in
  ( Filename.concat dir ("plr_" ^ d ^ ".c"),
    Filename.concat dir ("plr_" ^ d ^ ".so") )

(* Process-wide count of actual compiler invocations — the tests pin that
   a warm on-disk cache performs zero. *)
let cc_invocations = Atomic.make 0

(* ---- build ---- *)

let rec ensure_dir d =
  if d <> "" && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_log path =
  try
    let ic = open_in_bin path in
    let n = min (in_channel_length ic) 2048 in
    let s = really_input_string ic n in
    close_in ic;
    String.trim s
  with _ -> ""

let load_so sofile =
  let h = dlopen_so sofile in
  if h = 0n then Error ("dlopen failed: " ^ dlerror ())
  else
    let run = dlsym_fn h "plr_jit_run" in
    let run_chunked = dlsym_fn h "plr_jit_run_chunked" in
    (* int units only: float units run directly through the plain
       entry *)
    let run_tagged = dlsym_fn h "plr_jit_run_tagged" in
    if run = 0n || run_chunked = 0n then begin
      dlclose_so h;
      Error ("missing JIT entry point: " ^ dlerror ())
    end
    else Ok { handle = h; run; run_chunked; run_tagged }

let compile_and_load ~source =
  match resolve_cc () with
  | None -> Error (Printf.sprintf "C compiler %S not found" (cc ()))
  | Some cc_path -> (
      let cfile, sofile = cache_paths source in
      let built =
        if Sys.file_exists sofile then Ok () (* warm disk cache: no cc *)
        else begin
          ensure_dir (Filename.dirname sofile);
          Plr_util.Fileio.atomic_write_string ~path:cfile source;
          let tmp = sofile ^ "." ^ string_of_int (Unix.getpid ()) ^ ".tmp" in
          let log = Filename.remove_extension sofile ^ ".log" in
          let cmd =
            Filename.quote_command cc_path ~stdout:log ~stderr:log
              (cflags @ [ cfile; "-o"; tmp ])
          in
          Atomic.incr cc_invocations;
          let rc = Trace.with_span Trace.Jit "jit.cc" (fun () -> Sys.command cmd) in
          if rc = 0 then begin
            (* same-directory rename: concurrent builders race benignly *)
            Sys.rename tmp sofile;
            Ok ()
          end
          else begin
            (try Sys.remove tmp with Sys_error _ -> ());
            Error
              (Printf.sprintf "%s exited with %d: %s" (cc ()) rc (read_log log))
          end
        end
      in
      match built with Ok () -> load_so sofile | Error e -> Error e)

(* ---- in-process registry + async builds ---- *)

let cells : (string, state Atomic.t) Hashtbl.t = Hashtbl.create 16
let cells_lock = Mutex.create ()
let builders : unit Domain.t list ref = ref []
let builders_lock = Mutex.create ()

let () =
  at_exit (fun () ->
      let ds = Mutex.protect builders_lock (fun () -> !builders) in
      List.iter Domain.join ds)

let build_into cell source =
  let result =
    Trace.with_span Trace.Jit "jit.build" (fun () ->
        try compile_and_load ~source
        with e -> Error (Printexc.to_string e))
  in
  match result with
  | Ok fns -> Atomic.set cell (Ready fns)
  | Error e -> Atomic.set cell (Failed e)

let get_or_build ?(mode = `Sync) source =
  let cell, fresh =
    Mutex.protect cells_lock (fun () ->
        let d = digest source in
        match Hashtbl.find_opt cells d with
        | Some c -> (c, false)
        | None ->
            let c = Atomic.make Building in
            Hashtbl.add cells d c;
            (c, true))
  in
  if fresh then begin
    match mode with
    | `Sync -> build_into cell source
    | `Async -> (
        (* plan builds must never block on cc: hand the build to a fresh
           domain, fall back to inline when the spawn itself fails *)
        try
          let dom = Domain.spawn (fun () -> build_into cell source) in
          Mutex.protect builders_lock (fun () -> builders := dom :: !builders)
        with _ -> build_into cell source)
  end;
  cell

let rec wait cell =
  match Atomic.get cell with
  | Building ->
      Domain.cpu_relax ();
      wait cell
  | s -> s
