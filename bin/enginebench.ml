(* enginebench: wall-clock throughput of the simulator itself.

   Pass 1 (flags off) measures what users pay for: events/sec, µs/event
   and allocated words/event over fig4-at-max-size and a cell-storm
   microbench, written as BENCH_engine-throughput.json with embedded
   direction-aware gates for benchdiff.

   An optional second, instrumented pass (--selfprof / --queue-csv)
   re-runs the workloads with the wall-clock self-profiler and the
   timeseries sampler enabled to produce the wall-time flamegraph and
   the queue-depth series — kept out of the measured pass so profiling
   overhead never pollutes the numbers CI gates on. *)

open Cmdliner

let queue_csv_of_timeseries path =
  let oc = open_out path in
  output_string oc "series,t_ns,value\n";
  List.iter
    (fun (s : Engine.Timeseries.series) ->
      if
        s.s_name = "sim_queue_depth" || s.s_name = "sim_queue_tombstones"
      then
        List.iter
          (fun (t, v) -> Printf.fprintf oc "%s,%d,%g\n" s.s_name t v)
          s.s_points)
    (Engine.Timeseries.series ());
  close_out oc

let run quick per_cell trace timeseries flowstat out selfprof queue_csv =
  if per_cell then Engine.Trainmode.force_per_cell true;
  (* Observer overhead measurement: the flags below attach train-granular
     observers during the measured pass itself — the resulting snapshot
     quantifies what telemetry costs on the fast path, and CI's observed
     smoke checks its events_per_pdu equals the committed flags-off
     baseline. The default (all off) keeps the measured pass
     byte-compatible with the baseline capture. *)
  if trace then Engine.Trace.start ();
  if timeseries then Engine.Timeseries.start ();
  if flowstat then begin
    Atm.Flowstat.configure ();
    Engine.Pathrec.start ()
  end;
  Format.printf "engine-throughput bench (%s mode)@."
    (if quick then "quick" else "full");
  let samples = Experiments.Enginebench.measure ~quick in
  Experiments.Enginebench.print samples;
  Engine.Json.write_file out
    (Experiments.Enginebench.snapshot_json ~quick samples);
  Format.printf "wrote %s@." out;
  (* instrumented pass, only when asked for *)
  if selfprof <> None || queue_csv <> None then begin
    Engine.Profile.(start Wall);
    Engine.Timeseries.start ();
    List.iter
      (fun (_, _, f) -> ignore (f () : float))
      (Experiments.Enginebench.workloads ~quick);
    Engine.Profile.(stop Wall);
    Engine.Timeseries.stop ();
    Format.printf "%a" Engine.Profile.pp_summary ();
    if Engine.Sim.tombstone_ratio () > 0.25 then
      Logs.warn (fun m ->
          m
            "tombstone ratio %.0f%%: over a quarter of queue traffic is \
             cancelled events, pure pop-path waste"
            (Engine.Sim.tombstone_ratio () *. 100.));
    (match selfprof with
    | Some path ->
        Engine.Profile.(write_folded Wall) path;
        Format.printf "wrote wall-time flamegraph (%d ns elapsed) to %s@."
          Engine.Profile.(elapsed Wall)
          path
    | None -> ());
    match queue_csv with
    | Some path ->
        queue_csv_of_timeseries path;
        Format.printf "wrote queue-depth series to %s@." path
    | None -> ()
  end;
  0

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Smaller message counts (CI-sized runs).")

let per_cell =
  Arg.(
    value & flag
    & info [ "per-cell" ]
        ~doc:
          "Disable the cell-train fast path: schedule every ATM cell as its \
           own event (the reference slow path the fast path is gated \
           against).")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Run the measured pass with the (train-granular) trace collector \
           attached, to measure observer overhead on the fast path. The \
           events themselves are discarded.")

let timeseries =
  Arg.(
    value & flag
    & info [ "timeseries" ]
        ~doc:
          "Run the measured pass with the timeseries sampler attached (same \
           purpose as $(b,--trace)).")

let flowstat =
  Arg.(
    value & flag
    & info [ "flowstat" ]
        ~doc:
          "Run the measured pass with per-flow accounting and per-PDU \
           path records enabled (same purpose as $(b,--trace)): both are \
           folded analytically at train commit, so CI asserts \
           events_per_pdu equals the flags-off baseline.")

let out =
  Arg.(
    value
    & opt string "BENCH_engine-throughput.json"
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Where to write the gated snapshot.")

let selfprof =
  Arg.(
    value
    & opt ~vopt:(Some "selfprof.folded") (some string) None
    & info [ "selfprof" ] ~docv:"FILE"
        ~doc:
          "After the measured pass, re-run the workloads with the \
           wall-clock self-profiler enabled and write the folded \
           flamegraph to $(docv).")

let queue_csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "queue-csv" ] ~docv:"FILE"
        ~doc:
          "During the instrumented pass, sample the event-queue depth \
           and tombstone probes and write them as CSV to $(docv).")

let cmd =
  let doc = "measure the simulator's own wall-clock throughput" in
  Cmd.v
    (Cmd.info "enginebench" ~doc)
    Term.(
      const run $ quick $ per_cell $ trace $ timeseries $ flowstat $ out
      $ selfprof $ queue_csv)

let () = Stdlib.exit (Cmd.eval' cmd)
