(* serve-sessions: the serving layer used for state rather than for
   stateless cached reads.  Two client domains each own sessions over
   their half of the Table 1 F32 signatures and feed them 4096-element
   pieces round-robin, as a closed loop; a session is retired after 64
   pieces (2^18 elements) and a new one opened.  Checkpoints, journal,
   digest, the stream mechanics and the companion state do the work; the
   JIT and the plan cache do little.

   order2 and order3 are left out: over 2^18 F32 elements a session's
   output leaves the reference by more than the check's bound (normwise
   error 3.6 for order2, overflow for order3), and a workload must not
   fail by construction. *)

open Bench
module Serve = Plr_serve.Serve
module Srv = Serve.Make (Scalar.F32)
module Sf = Plr_serial.Serial.Make (Scalar.F32)
module Stream = Plr_multicore.Stream.Make (Scalar.F32)

let name = "serve-sessions"
let events_per_s = 50_000
let clients = 2
let piece = 4096
let pieces = 64
let slo_s = 0.010

type client = {
  dom : int;
  lat_ms : float array;  (** per piece *)
  fin : float array;  (** completion offsets of the pieces that were correct *)
  create_ms : float array;
  attempted : int;
  good : int;
  good_in_slo : int;
  process_s : float;
}

(* One session a client keeps open, and the next piece it will feed. *)
type slot = { sg : int; mutable session : Srv.Session.t; mutable next : int }

let run (ctx : ctx) =
  let sigs =
    List.filter (fun e -> e != Table1.order2 && e != Table1.order3) Table1.all
    |> List.map f32_sig |> Array.of_list
  in
  let g = rng ~seed:ctx.seed 7 in
  let input () = Array.init piece (fun _ -> float_of_int (small_int g)) in
  let streams = Array.map (fun _ -> Array.init pieces (fun _ -> input ())) sigs in
  let t0 = now () in
  let config = { Serve.default_config with Serve.shards = 2 } in
  let srv = Srv.create ~config ~domains:1 () in
  Array.iteri
    (fun i s -> ignore (Srv.Session.process (Srv.session srv s) streams.(i).(0)))
    sigs;
  let setup_s = now () -. t0 in
  if ctx.setup_only then begin
    Srv.shutdown srv;
    { setup_s; attempted = 0; failed = 0; metrics = [] }
  end
  else begin
    (* A session's outputs are one offline pass over its 2^18 inputs; a
       piece is checked against its slice, scaled by the largest
       reference magnitude up to the piece's end. *)
    let expected =
      Array.mapi (fun i s -> Sf.full s (Array.concat (Array.to_list streams.(i)))) sigs
    in
    let scales =
      Array.map
        (fun y ->
          let m = ref 0.0 in
          Array.init pieces (fun p ->
              for j = p * piece to ((p + 1) * piece) - 1 do
                m := Float.max !m (Float.abs y.(j))
              done;
              1.0 +. !m))
        expected
    in
    let client c () =
      let lat = samples () and fin = samples () and create = samples () in
      let attempted = ref 0 and good = ref 0 and good_in_slo = ref 0 in
      let process_s = ref 0.0 in
      let open_session sg =
        let t = now () in
        let s = span "bench.session.create" (fun () -> Srv.session srv sigs.(sg)) in
        push create ((now () -. t) *. 1e3);
        s
      in
      let slots =
        List.init (Array.length sigs) Fun.id
        |> List.filter (fun sg -> sg mod clients = c)
        |> List.map (fun sg -> { sg; session = open_session sg; next = 0 })
        |> Array.of_list
      in
      let start = now () in
      let stop = start +. ctx.seconds in
      let k = ref 0 in
      while now () < stop do
        let slot = slots.(!k mod Array.length slots) in
        incr k;
        if slot.next = pieces then begin
          slot.session <- open_session slot.sg;
          slot.next <- 0
        end;
        let sg = slot.sg and p = slot.next in
        let t = now () in
        let y =
          span "bench.session.process" (fun () ->
              Srv.Session.process slot.session streams.(sg).(p))
        in
        let dt = now () -. t in
        process_s := !process_s +. dt;
        push lat (dt *. 1e3);
        incr attempted;
        let correct =
          span "bench.harness.check" (fun () ->
              floats_close ~scale:scales.(sg).(p) ~off:(p * piece)
                ~expected:expected.(sg) y)
        in
        if correct then begin
          incr good;
          if dt <= slo_s then incr good_in_slo;
          push fin (now () -. start)
        end;
        slot.next <- p + 1
      done;
      {
        dom = domain_id ();
        lat_ms = to_array lat;
        fin = to_array fin;
        create_ms = to_array create;
        attempted = !attempted;
        good = !good;
        good_in_slo = !good_in_slo;
        process_s = !process_s;
      }
    in
    let res, ph =
      Layers.phase ctx (fun () ->
          List.init clients (fun c -> Domain.spawn (client c))
          |> List.map Domain.join)
    in
    Srv.shutdown srv;
    let cat f = Array.concat (List.map f res) in
    let total f = List.fold_left (fun acc r -> acc + f r) 0 res in
    let attempted = total (fun r -> r.attempted) and good = total (fun r -> r.good) in
    let fin = cat (fun r -> r.fin) and lat = cat (fun r -> r.lat_ms) in
    let wall = ctx.seconds in
    let elems = float_of_int (attempted * piece) in
    let process_s = List.fold_left (fun acc r -> acc +. r.process_s) 0.0 res in
    let op = op_rate ~elems ~op_s:process_s in
    let end_to_end () =
      let piece_elems = Array.map (fun _ -> float_of_int piece) fin in
      let in_slo = total (fun r -> r.good_in_slo) in
      [
        metric "throughput_gelem_s" "Gelem/s"
          (float_of_int (good * piece) /. wall /. 1e9);
        metric "throughput_p10_gelem_s" "Gelem/s"
          (quantile (window_rates ~wall ~at:fin ~elems:piece_elems) 0.1);
        metric "latency_p50_ms" "ms" (median lat);
        metric "latency_p90_ms" "ms" (quantile lat 0.9);
        metric "goodput_rps" "req/s" (float_of_int in_slo /. wall);
      ]
    in
    let layers lt =
      (* The same pieces through the bare stream, called from outside:
         what the session layer costs on top of [Multicore.Stream]. *)
      let t = now () in
      Array.iteri
        (fun i s ->
          let st = Stream.create ~domains:1 s in
          Array.iter (fun x -> ignore (Stream.process st x)) streams.(i))
        sigs;
      let stream_elems = float_of_int (Array.length sigs * pieces * piece) in
      let stream_ns = (now () -. t) *. 1e9 /. stream_elems in
      let per_piece name =
        Layers.frac (float_of_int (Layers.count lt name)) (float_of_int attempted)
      in
      Layers.common lt ph ~domains:(List.map (fun r -> r.dom) res) ~elems ~op
        ~copy:(copy_gelem_s (batch_n ctx))
      @ [
          metric "session.create_ms" "ms" (median (cat (fun r -> r.create_ms)));
          metric "session.checkpoints_per_piece" "count"
            (per_piece "session.checkpoint");
          metric "session.checkpoint.self_frac" "frac"
            (Layers.self_frac lt "session.checkpoint");
          metric "factors.compiles_per_piece" "count" (per_piece "factor.compile");
          metric "stream.ns_per_elem" "ns/elem" stream_ns;
        ]
    in
    let metrics =
      op
      :: (match ph.Layers.trace with None -> end_to_end () | Some lt -> layers lt)
    in
    { setup_s; attempted; failed = attempted - good; metrics }
  end
