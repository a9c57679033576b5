(* Benchmark driver: regenerates every figure and table of the paper's
   evaluation under the machine model, and runs a Bechamel wall-clock suite
   over the actual OCaml implementations (serial, simulated-GPU engine, and
   multicore CPU backend).

   Usage:
     main.exe                 — everything
     main.exe fig1 … fig10    — one figure
     main.exe tab2 tab3       — one table
     main.exe micro           — only the Bechamel wall-clock suite
     main.exe csv [dir]       — every figure/table as CSV
     main.exe trace-check     — disabled-tracing overhead budget (< 2%)

   Performance claims about the CPU backends and the serving layer cite
   the plrbench benchmark (benchmark/README.md), not this driver.
*)

module Spec = Plr_gpusim.Spec
module Series = Plr_bench.Series
module Figures = Plr_bench.Figures
module Tables = Plr_bench.Tables
module Ablation = Plr_bench.Ablation
module Classify = Plr_signature.Classify

let spec = Spec.titan_x
let fmt = Format.std_formatter

let figures =
  [
    ("fig1", fun () -> Series.render fmt (Figures.fig1 spec));
    ("fig2", fun () -> Series.render fmt (Figures.fig2 spec));
    ("fig3", fun () -> Series.render fmt (Figures.fig3 spec));
    ("fig4", fun () -> Series.render fmt (Figures.fig4 spec));
    ("fig5", fun () -> Series.render fmt (Figures.fig5 spec));
    ("fig6", fun () -> Series.render fmt (Figures.fig6 spec));
    ("fig7", fun () -> Series.render fmt (Figures.fig7 spec));
    ("fig8", fun () -> Series.render fmt (Figures.fig8 spec));
    ("fig9", fun () -> Series.render fmt (Figures.fig9 spec));
    ("fig10", fun () -> Series.render_table fmt (Figures.fig10 spec));
    ("tab2", fun () -> Series.render_table fmt (Tables.table2 spec));
    ("tab3", fun () -> Series.render_table fmt (Tables.table3 spec));
    (* supplementary results the paper reports in prose, and ablations of
       the design choices DESIGN.md calls out *)
    ("fig-tuple4", fun () -> Series.render fmt (Ablation.fig_tuple4 spec));
    ("fig-order4", fun () -> Series.render fmt (Ablation.fig_order4 spec));
    ("ablation-cache", fun () -> Series.render_table fmt (Ablation.cache_budget_sweep spec));
    ("ablation-lookback", fun () -> Series.render_table fmt (Ablation.lookback_sweep spec));
    ("ablation-tuner", fun () -> Series.render_table fmt (Ablation.tuner_report spec));
    ("cross-gpu", fun () -> Series.render_table fmt (Ablation.cross_gpu ()));
    ( "breakdown",
      fun () ->
        List.iter
          (fun kind -> Series.render_table fmt (Ablation.workload_breakdown spec kind))
          [ Classify.Prefix_sum; Classify.Tuple_prefix 2;
            Classify.Higher_order_prefix 2; Classify.Higher_order_prefix 3 ] );
  ]

let run_micro () =
  print_endline "=== micro: wall-clock Bechamel suite (OCaml implementations) ===";
  Plr_bench.Micro.run fmt

(* Disabled-tracing overhead budget: the Plr_trace instrumentation must
   cost the hot paths under 2% when the sink is off.  CI runs this
   non-fatally (|| true) so a noisy shared runner cannot block a merge. *)
let run_trace_check () =
  let o = Plr_bench.Perf.trace_overhead () in
  Plr_bench.Perf.render_overhead fmt o;
  if o.Plr_bench.Perf.overhead_frac >= 0.02 then begin
    Printf.eprintf "trace-check: disabled-tracing overhead over budget\n";
    exit 1
  end

(* Write every figure and table as CSV for external plotting. *)
let run_csv dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name contents =
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s/%s.csv\n" dir name
  in
  List.iter
    (fun fig -> write fig.Series.id (Series.figure_to_csv fig))
    (Figures.all_figures spec
    @ [ Ablation.fig_tuple4 spec; Ablation.fig_order4 spec ]);
  List.iter
    (fun t -> write t.Series.tid (Series.table_to_csv t))
    [ Figures.fig10 spec; Tables.table2 spec; Tables.table3 spec;
      Ablation.cache_budget_sweep spec; Ablation.lookback_sweep spec;
      Ablation.tuner_report spec; Ablation.cross_gpu () ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) figures;
      run_micro ()
  | [ "csv" ] -> run_csv "bench/out"
  | [ "csv"; dir ] -> run_csv dir
  | [ "trace-check" ] -> run_trace_check ()
  | names ->
      List.iter
        (fun name ->
          if name = "micro" then run_micro ()
          else
            match List.assoc_opt name figures with
            | Some f -> f ()
            | None ->
                Printf.eprintf
                  "unknown target %s (try fig1..fig10, tab2, tab3, micro, \
                   trace-check)\n"
                  name;
                exit 1)
        names
