(* Tests for the persistent domain pool: task coverage, reuse across many
   runs, the increasing-claim-order guarantee, exception propagation,
   cooperative cancellation, and the registry; and a property test of the
   shared look-back protocol over a trivial carry. *)

module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Lookback = Plr_exec.Lookback
module Faults = Plr_gpusim.Faults

exception Boom of int

let test_covers_all_tasks () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun tasks ->
      let hits = Array.make (max 1 tasks) (Atomic.make 0) in
      Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
      Pool.run pool ~tasks (fun i -> Atomic.incr hits.(i));
      if tasks > 0 then
        Array.iteri
          (fun i a ->
            Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1
              (Atomic.get a))
          hits)
    [ 0; 1; 2; 3; 7; 16; 100; 1000 ]

let test_many_small_runs_reuse_pool () =
  (* The whole point of the pool: hundreds of runs must not spawn
     hundreds of domains.  We can't count domains portably, but we can
     check the pool stays functional and its size never changes. *)
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let size0 = Pool.size pool in
  let total = Atomic.make 0 in
  for _ = 1 to 500 do
    Pool.run pool ~tasks:5 (fun _ -> Atomic.incr total)
  done;
  Alcotest.(check int) "all tasks of all runs ran" 2500 (Atomic.get total);
  Alcotest.(check int) "pool size is stable" size0 (Pool.size pool)

let test_lookback_progress () =
  (* The increasing-claim-order guarantee is what makes a spin on the
     previous task's publication deadlock-free: the lowest in-flight task
     never waits on a higher index.  Exercise exactly that dependency
     shape; a broken guarantee turns this into a stall, caught by the
     timeout instead of hanging the suite. *)
  let pool = Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let tasks = 200 in
  let published = Array.init tasks (fun _ -> Atomic.make false) in
  Pool.run pool ~tasks (fun i ->
      if i > 0 then begin
        let t0 = Unix.gettimeofday () in
        while not (Atomic.get published.(i - 1)) do
          if Unix.gettimeofday () -. t0 > 10.0 then
            failwith "look-back chain stalled";
          Domain.cpu_relax ()
        done
      end;
      Atomic.set published.(i) true);
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) (Printf.sprintf "task %d published" i) true
        (Atomic.get p))
    published

let test_exception_propagates_and_pool_survives () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (match Pool.run pool ~tasks:32 (fun i -> if i = 7 then raise (Boom i)) with
  | () -> Alcotest.fail "expected the task exception to propagate"
  | exception Boom 7 -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
  (* all workers were joined back into the pool: it still works *)
  let total = Atomic.make 0 in
  Pool.run pool ~tasks:10 (fun _ -> Atomic.incr total);
  Alcotest.(check int) "pool survives a failed run" 10 (Atomic.get total)

let test_lowest_failure_wins () =
  (* Tasks that observe cancellation raise [Stopped]; the primary failure
     reported must be a real one, not the cancellation echo. *)
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  match
    Pool.run pool ~tasks:16 (fun i ->
        if i = 3 then raise (Boom 3)
        else if Pool.cancelled pool then raise Pool.Stopped)
  with
  | () -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 3 -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)

let test_size_one_runs_inline () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "size" 1 (Pool.size pool);
  let order = ref [] in
  Pool.run pool ~tasks:5 (fun i -> order := i :: !order);
  Alcotest.(check (list int)) "inline runs in index order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let test_nested_run_is_inline () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let inner_total = Atomic.make 0 in
  Pool.run pool ~tasks:4 (fun _ ->
      (* a busy pool runs nested jobs inline rather than deadlocking *)
      Pool.run pool ~tasks:3 (fun _ -> Atomic.incr inner_total));
  Alcotest.(check int) "nested tasks all ran" 12 (Atomic.get inner_total)

let test_shutdown_idempotent_and_inline_after () =
  let pool = Pool.create ~domains:3 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check int) "no workers left" 1 (Pool.size pool);
  let total = Atomic.make 0 in
  Pool.run pool ~tasks:4 (fun _ -> Atomic.incr total);
  Alcotest.(check int) "runs inline after shutdown" 4 (Atomic.get total)

let test_registry_shares_pools () =
  let a = Pool.get ~domains:2 () in
  let b = Pool.get ~domains:2 () in
  Alcotest.(check bool) "same pool for the same size" true (a == b);
  let c = Pool.get ~domains:1 () in
  Alcotest.(check bool) "different size, different pool" false (a == c);
  Alcotest.(check int) "clamped to at least one" 1 (Pool.size c)

let test_parallel_work_is_correct () =
  (* A small map-reduce over the pool: each task sums a strided slice. *)
  let pool = Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n = 100_000 in
  let tasks = 16 in
  let partial = Array.make tasks 0 in
  Pool.run pool ~tasks (fun t ->
      let acc = ref 0 in
      let i = ref t in
      while !i < n do
        acc := !acc + !i;
        i := !i + tasks
      done;
      partial.(t) <- !acc);
  Alcotest.(check int) "sum" (n * (n - 1) / 2) (Array.fold_left ( + ) 0 partial)

(* ------------------------------------------------------- cancellation *)

let test_cancel_token () =
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh token quiet" false (Cancel.fired t);
  Cancel.check t;
  Cancel.cancel t;
  Alcotest.(check bool) "fired after cancel" true (Cancel.fired t);
  (match Cancel.check t with
  | () -> Alcotest.fail "check must raise once fired"
  | exception Cancel.Cancelled -> ());
  (* deadlines latch *)
  let past = Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  Alcotest.(check bool) "past deadline fires" true (Cancel.fired past);
  let future = Cancel.create ~deadline:(Unix.gettimeofday () +. 60.0) () in
  Alcotest.(check bool) "future deadline quiet" false (Cancel.fired future);
  (* [none] is immune, even to an explicit cancel *)
  Cancel.cancel Cancel.none;
  Alcotest.(check bool) "none never fires" false (Cancel.fired Cancel.none)

let test_cancel_stops_run () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let cancel = Cancel.create () in
  let ran = Atomic.make 0 in
  (match
     Pool.run ~cancel pool ~tasks:10_000 (fun i ->
         Atomic.incr ran;
         if i = 5 then Cancel.cancel cancel)
   with
  | () -> Alcotest.fail "expected Cancelled to propagate"
  | exception Cancel.Cancelled -> ()
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
  Alcotest.(check bool) "cancellation cut the run short" true
    (Atomic.get ran < 10_000);
  (* the pool survives a cancelled job *)
  let total = Atomic.make 0 in
  Pool.run pool ~tasks:10 (fun _ -> Atomic.incr total);
  Alcotest.(check int) "pool survives cancellation" 10 (Atomic.get total)

let test_failure_beats_cancellation_race () =
  (* A worker dies with a real failure while a later-index task is firing
     the cancel token: both teardown paths race, and the job must still
     report the real failure, never the cancellation echo. *)
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  for round = 1 to 20 do
    let cancel = Cancel.create () in
    match
      Pool.run ~cancel pool ~tasks:64 (fun i ->
          if i = 0 then begin
            (* hold the failure until the cancellation is in flight, so
               the two genuinely overlap *)
            let t0 = Unix.gettimeofday () in
            while (not (Cancel.fired cancel)) && Unix.gettimeofday () -. t0 < 5.0
            do
              Domain.cpu_relax ()
            done;
            failwith "primary"
          end
          else if i = 10 then Cancel.cancel cancel)
    with
    | () -> Alcotest.failf "round %d: expected a failure" round
    | exception Failure m ->
        Alcotest.(check string)
          (Printf.sprintf "round %d: real failure wins" round)
          "primary" m
    | exception e ->
        Alcotest.failf "round %d: real failure masked by %s" round
          (Printexc.to_string e)
  done

let test_deadline_cancels_inline_run () =
  (* Single-task jobs run inline on the caller; the token must cut them
     at the same chunk-boundary points. *)
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let cancel = Cancel.create ~deadline:(Unix.gettimeofday () -. 0.001) () in
  match Pool.run ~cancel pool ~tasks:1 (fun _ -> ()) with
  | () -> Alcotest.fail "expired deadline must cancel the inline run"
  | exception Cancel.Cancelled -> ()

let test_stats () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let st = Pool.stats pool in
  Alcotest.(check int) "size matches" (Pool.size pool) st.Pool.size;
  Alcotest.(check int) "no jobs yet" 0 st.Pool.jobs_completed;
  Alcotest.(check bool) "idle" false st.Pool.busy;
  for _ = 1 to 5 do
    Pool.run pool ~tasks:3 (fun _ -> ())
  done;
  Alcotest.(check int) "five jobs counted" 5 (Pool.stats pool).Pool.jobs_completed;
  (* Inline paths count too: a single-task run never wakes the workers. *)
  Pool.run pool ~tasks:1 (fun _ -> ());
  Alcotest.(check int) "inline run counted" 6
    (Pool.stats pool).Pool.jobs_completed;
  (* A failed job still counts as completed work (the pool survived it). *)
  (try Pool.run pool ~tasks:2 (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "failed run counted" 7
    (Pool.stats pool).Pool.jobs_completed;
  Alcotest.(check bool) "idle again" false (Pool.stats pool).Pool.busy

(* ------------------------------------------------ look-back protocol *)

(* The simplest carry: a running sum.  A chunk's local carry is its sum
   (its outputs hold the local prefix sums), combining adds, and the
   exclusive carry is added to every output. *)
module Sum = struct
  type t = int

  let cat = Plr_trace.Trace.App
  let run_span = "test.run"
  let chunk_span = "test.chunk"
  let lookback_span = "test.lookback"
  let publish_event = "test.publish"
  let correct_span = None
  let corrupt ~lane v = v + 1 + lane
end

module LB = Lookback.Make (Sum)

let sum_ops x y =
  {
    LB.local =
      (fun ~base ~len ->
        let acc = ref 0 in
        for i = base to base + len - 1 do
          acc := !acc + x.(i);
          y.(i) <- !acc
        done;
        !acc);
    combine = ( + );
    apply =
      (fun ~base ~len g ->
        for i = base to base + len - 1 do
          y.(i) <- y.(i) + g
        done);
    equal = Int.equal;
    poison = (fun ~base:_ ~len:_ v -> v + 1);
    correct_arg = 0;
  }

type case = {
  domains : int;
  window : int option;
  m : int;
  xs : int array;
  benign_seed : int;
  drop : Faults.kind;
  drop_chunk : int;
}

let print_case c =
  Printf.sprintf
    "{domains=%d; window=%s; m=%d; n=%d; xs=[|%s|]; benign_seed=%d; drop=%s      on chunk %d}"
    c.domains
    (match c.window with Some w -> string_of_int w | None -> "default")
    c.m (Array.length c.xs)
    (String.concat "; " (Array.to_list (Array.map string_of_int c.xs)))
    c.benign_seed
    (Faults.kind_to_string c.drop)
    c.drop_chunk

let gen_case =
  let open QCheck2.Gen in
  let* domains = int_range 1 3 in
  let* window = oneofl [ Some 1; Some 2; Some 4; None ] in
  let* m = int_range 1 8 in
  let* n = int_range 0 (40 * m) in
  let* xs = array_size (return n) (int_range (-50) 50) in
  let* benign_seed = int_range 0 10_000 in
  let* drop = oneofl [ Faults.Drop_local; Faults.Drop_global ] in
  let+ drop_chunk = int_range 0 40 in
  { domains; window; m; xs; benign_seed; drop; drop_chunk }

let prop_lookback pools =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 2026 |])
    (QCheck2.Test.make ~name:"look-back ≡ sequential fold" ~count:300
       ~print:print_case gen_case (fun c ->
         let n = Array.length c.xs and m = c.m in
         let chunks = (n + m - 1) / m in
         let expected = Array.make n 0 in
         Array.iteri
           (fun i v -> expected.(i) <- (if i = 0 then 0 else expected.(i - 1)) + v)
           c.xs;
         let live = Array.make n 0 in
         LB.run ?window:c.window ~cancel:Cancel.none
           ~pool:pools.(c.domains - 1) ~start:None (sum_ops c.xs live) ~n ~m;
         if live <> expected then QCheck2.Test.fail_report "live run diverged";
         let faulted faults =
           let y = Array.make n 0 in
           match LB.run_faulted ~faults ~start:None (sum_ops c.xs y) ~n ~m with
           | () -> Some y
           | exception Lookback.Fault_detected _ -> None
         in
         let benign =
           Faults.random ~seed:c.benign_seed ~chunks ~lanes:1
             ~kinds:[ Faults.Reorder; Faults.Delay_flag ] ~max_events:4 ()
         in
         if faulted benign <> Some expected then
           QCheck2.Test.fail_report "benign faults did not replay bit-exactly";
         if chunks > 0 then begin
           (* A dropped aggregate stalls iff a later chunk of its window
              folds it; a dropped inclusive carry stalls iff it ends a
              window that has a successor.  Anything else is routed
              around bit-exactly. *)
           let w = Lookback.faulted_lookback_window in
           let c0 = c.drop_chunk mod chunks in
           let ends_window = c0 mod w = w - 1 in
           let read =
             c0 + 1 < chunks
             && if c.drop = Faults.Drop_local then not ends_window else ends_window
           in
           let got =
             faulted
               (Faults.of_events
                  [ { Faults.kind = c.drop; chunk = c0; lane = 0; delay = 0 } ])
           in
           match (read, got) with
           | true, None -> ()
           | false, Some y when y = expected -> ()
           | true, Some _ -> QCheck2.Test.fail_report "read drop did not stall"
           | false, _ -> QCheck2.Test.fail_report "unread drop was not routed around"
         end;
         true))

let () =
  let pools = Array.init 3 (fun i -> Pool.create ~domains:(i + 1) ()) in
  Fun.protect ~finally:(fun () -> Array.iter Pool.shutdown pools) @@ fun () ->
  Alcotest.run "plr_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "covers all tasks" `Quick test_covers_all_tasks;
          Alcotest.test_case "many small runs reuse the pool" `Quick
            test_many_small_runs_reuse_pool;
          Alcotest.test_case "look-back chains make progress" `Quick
            test_lookback_progress;
          Alcotest.test_case "exception propagation joins all workers" `Quick
            test_exception_propagates_and_pool_survives;
          Alcotest.test_case "lowest real failure wins" `Quick
            test_lowest_failure_wins;
          Alcotest.test_case "size one runs inline" `Quick
            test_size_one_runs_inline;
          Alcotest.test_case "nested run is inline" `Quick
            test_nested_run_is_inline;
          Alcotest.test_case "shutdown is idempotent" `Quick
            test_shutdown_idempotent_and_inline_after;
          Alcotest.test_case "registry shares pools" `Quick
            test_registry_shares_pools;
          Alcotest.test_case "parallel map-reduce" `Quick
            test_parallel_work_is_correct;
          Alcotest.test_case "stats snapshot" `Quick test_stats;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "token basics" `Quick test_cancel_token;
          Alcotest.test_case "cancellation stops a run" `Quick
            test_cancel_stops_run;
          Alcotest.test_case "real failure beats racing cancellation" `Quick
            test_failure_beats_cancellation_race;
          Alcotest.test_case "deadline cancels an inline run" `Quick
            test_deadline_cancels_inline_run;
        ] );
      ("lookback", [ prop_lookback pools ]);
    ]
