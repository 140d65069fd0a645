(* unetsim: run the paper's tables and figures on the simulated testbed. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* Experiment-specific report fragments accumulated across the run (one
   entry per experiment when --report is active). *)
let report_acc : string list list ref = ref []

let run_experiment ?(collect_report = false) name quick check =
  match Experiments.Registry.find name with
  | None ->
      Format.eprintf "unknown experiment %S; try: %s@." name
        (String.concat ", " Experiments.Registry.names);
      1
  | Some e ->
      let o = e.run ~quick in
      if collect_report then
        report_acc := Experiments.Registry.report_sections e o :: !report_acc;
      if check then begin
        List.iter
          (fun (what, ok) ->
            Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") what)
          o.Experiments.Registry.o_checks;
        if List.for_all snd o.o_checks then 0
        else begin
          (* a failed claim is as postmortem-worthy as a stall *)
          if Engine.Recorder.armed () then
            Engine.Recorder.trigger
              ~reason:(Printf.sprintf "experiment %s: checks failed" name);
          1
        end
      end
      else begin
        o.Experiments.Registry.o_print ();
        0
      end

let sanitize label =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> ch
      | _ -> '_')
    label

let write_plotdata dir quick =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let wrote = ref [] in
  List.iter
    (fun (e : Experiments.Registry.experiment) ->
      match (e.run ~quick).Experiments.Registry.o_series with
      | [] -> ()
      | curves ->
          List.iter
            (fun (label, points) ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s_%s.dat" e.name (sanitize label))
              in
              let oc = open_out path in
              Printf.fprintf oc "# %s: %s\n# x  y\n" e.name label;
              List.iter (fun (x, y) -> Printf.fprintf oc "%g %g\n" x y) points;
              close_out oc;
              wrote := path :: !wrote)
            curves;
          Format.printf "wrote %d curves for %s@." (List.length curves) e.name)
    Experiments.Registry.all;
  (* a gnuplot driver covering every figure *)
  let gp = Filename.concat dir "plot.gp" in
  let oc = open_out gp in
  output_string oc
    "# gnuplot driver for the U-Net reproduction figures\n\
     set terminal pngcairo size 900,600\n\
     set key left top\n\
     set grid\n";
  List.iter
    (fun fig ->
      let files =
        List.filter
          (fun p -> Filename.check_suffix p ".dat"
                    && String.length (Filename.basename p) > String.length fig
                    && String.sub (Filename.basename p) 0 (String.length fig) = fig)
          (List.rev !wrote)
      in
      if files <> [] then begin
        Printf.fprintf oc "set output '%s.png'\nset title '%s'\nplot %s\n" fig
          fig
          (String.concat ", "
             (List.map
                (fun p ->
                  Printf.sprintf "'%s' using 1:2 with linespoints title '%s'"
                    (Filename.basename p)
                    (Filename.remove_extension (Filename.basename p)))
                files))
      end)
    [ "fig3"; "fig4"; "fig6"; "fig7"; "fig8"; "fig9" ];
  close_out oc;
  Format.printf "wrote %s (run: cd %s && gnuplot plot.gp)@." gp dir;
  0

let run_all ?collect_report quick check =
  List.fold_left
    (fun acc (e : Experiments.Registry.experiment) ->
      Format.printf "@.=== %s: %s ===@.@." e.name e.description;
      max acc (run_experiment ?collect_report e.name quick check))
    0 Experiments.Registry.all

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller iteration counts (CI-sized runs).")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Evaluate the paper's qualitative claims instead of printing data.")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Show debug logs (drops, retransmissions, TCP timeouts).")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record virtual-time trace events during the run and write them as \
           Chrome trace_event JSON to $(docv) (open in Perfetto or \
           chrome://tracing). Combined with $(b,--spans), flow events link \
           the send and receive sides of each message.")

let metrics_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "After the run, dump the metrics registry to $(docv): Prometheus \
           text format, or JSON when $(docv) ends in .json.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "plot-data" ] ~docv:"DIR"
        ~doc:
          "Write every figure's curves as gnuplot-ready .dat files (plus a \
           plot.gp driver) into $(docv) and exit.")

let spans_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"FILE"
        ~doc:
          "Collect per-message causal spans during the run and write the \
           span trees (ids, parentage, milestone marks, phase breakdowns) \
           as JSON to $(docv).")

let pcap_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "pcap" ] ~docv:"FILE"
        ~doc:
          "Capture simulated traffic (AAL5 cells, Ethernet frames) with \
           virtual-time timestamps and write a pcapng file to $(docv), \
           openable in Wireshark.")

let fault =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection: a comma-separated key=value spec, \
           e.g. $(b,loss=0.01,seed=42,at=link). Keys: seed, loss (alias p), \
           corrupt, dup, reorder, reorder_span, burst_enter, burst_exit, \
           burst_loss, dma_stall, dma_stall_ns, rx_overrun, and at — a \
           +-separated subset of up, down, switch, ni (shorthands: link = \
           up+down, all). Every simulated cluster built during the run \
           attaches the spec at the selected sites; all draws come from the \
           seed, so a faulty run replays exactly.")

let per_cell =
  Arg.(
    value & flag
    & info [ "per-cell" ]
        ~doc:
          "Disable the cell-train fast path and schedule every ATM cell as \
           its own event (the reference slow path). Observable results are \
           identical either way; this exists for differential testing and \
           for measuring the fast path's event savings.")

let breakdown =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:
          "Collect spans during the run and print the per-phase latency \
           attribution afterwards (the measured Table 2 decomposition when \
           the run contains UAM round trips).")

let profile_file =
  Arg.(
    value
    & opt ~vopt:(Some "profile.folded") (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Attribute virtual time to per-host frame stacks during the run \
           and write a collapsed-stack (folded) file to $(docv) (default \
           $(b,profile.folded)), the format flamegraph.pl and speedscope \
           ingest. Each host's root frame's inclusive time equals the \
           run's elapsed virtual time.")

let selfprof_file =
  Arg.(
    value
    & opt ~vopt:(Some "selfprof.folded") (some string) None
    & info [ "selfprof" ] ~docv:"FILE"
        ~doc:
          "Attribute wall-clock time and GC allocation to the same frame \
           taxonomy as $(b,--profile) (the two compose; one push feeds \
           both) and write a collapsed-stack wall-time file to $(docv) \
           (default $(b,selfprof.folded)). The root's inclusive wall time \
           equals measured elapsed wall time. Also prints a per-event-kind \
           summary and queue pop-cost figures, and warns when the \
           event-queue tombstone ratio exceeds 25%.")

let timeseries_file =
  Arg.(
    value
    & opt ~vopt:(Some "timeseries.json") (some string) None
    & info [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Sample registered resource probes (ring occupancy, switch port \
           queues, link and i960 utilization, TCP cwnd/flight/rto, UAM \
           unacked windows, fault activity) every --sample-interval of \
           simulated time and write the series as JSON to $(docv) (default \
           $(b,timeseries.json)) plus CSV next to it.")

let sample_interval =
  Arg.(
    value & opt int 10
    & info [ "sample-interval" ] ~docv:"MICROSECONDS"
        ~doc:"Timeseries sampling interval in simulated microseconds.")

let report_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a single self-contained HTML run report to $(docv): \
           experiment description, checks, figure curves, the per-phase \
           latency breakdown, resource-timeseries sparklines, a per-host \
           flamegraph and the metrics registry. Implies span, profile and \
           timeseries collection. The file has no scripts and no external \
           references.")

let postmortem_dir =
  Arg.(
    value
    & opt ~vopt:(Some "postmortem") (some string) None
    & info [ "postmortem" ] ~docv:"DIR"
        ~doc:
          "Arm the flight recorder: if some flow sits undelivered past the \
           stall deadline, or an experiment check fails under $(b,--check), \
           dump a post-mortem bundle (flow table, queue snapshots, recent \
           trace events, metrics, and any enabled telemetry) into $(docv) \
           (default $(b,postmortem)).")

let paths_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "paths" ] ~docv:"FILE"
        ~doc:
          "Collect INT-style per-PDU path records during the run (per hop: \
           stage, ingress/egress port, queue depth at arrival, hop \
           latency) and write them as JSON to $(docv). Records are \
           synthesized analytically from committed cell trains and \
           stamped at real instants on the per-cell path — the export is \
           byte-identical either way, so this never disables the train \
           fast path.")

let flowstat =
  Arg.(
    value & flag
    & info [ "flowstat" ]
        ~doc:
          "Enable per-flow, per-hop fabric accounting: exact \
           $(b,atm_flow_*{flow,hop}) metric tables for the first flows \
           plus a Space-Saving top-K heavy-hitter sketch over all of \
           them (DESIGN.md \xC2\xA717). Dump with $(b,--metrics) or render \
           with the fabric experiment's congestion atlas in $(b,--report).")

(* --topology single:N | clos:P,S,H *)
let parse_topology s =
  let fail () =
    Error
      (Printf.sprintf
         "bad --topology %S: expected single:HOSTS or \
          clos:PODS,SPINE,HOSTS_PER_POD"
         s)
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i ->
      let kind = String.sub s 0 i in
      let args =
        List.map int_of_string_opt
          (String.split_on_char ','
             (String.sub s (i + 1) (String.length s - i - 1)))
      in
      (match (kind, args) with
      | "single", [ Some n ] when n >= 1 -> Ok (Atm.Network.Single n)
      | "clos", [ Some pods; Some spine; Some hosts_per_pod ]
        when pods >= 1 && spine >= 1 && hosts_per_pod >= 1 ->
          Ok (Atm.Network.Clos { pods; spine; hosts_per_pod })
      | _ -> fail ())

let topology =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"SPEC"
        ~doc:
          "Fabric shape for every cluster the run builds: \
           $(b,single:HOSTS) (the paper's one-switch testbed) or \
           $(b,clos:PODS,SPINE,HOSTS_PER_POD) (a folded-Clos fat-tree, \
           DESIGN.md \xC2\xA716). Experiments that pin their own topology \
           (e.g. $(b,fabric)) are unaffected.")

let names_doc =
  "EXPERIMENT is one of: all, " ^ String.concat ", " Experiments.Registry.names

let experiment =
  Arg.(
    value
    & pos 0 string "all"
    & info [] ~docv:"EXPERIMENT" ~doc:names_doc)

let cmd =
  let doc = "reproduce the tables and figures of the U-Net paper (SOSP 1995)" in
  let term =
    Term.(
      const (fun name quick check out verbose trace metrics spans pcap
                 breakdown fault per_cell profile selfprof timeseries
                 interval_us report paths flowstat topo
                 postmortem ->
          setup_logs verbose;
          if per_cell then Engine.Trainmode.force_per_cell true;
          (match topo with
          | None -> ()
          | Some spec -> (
              match parse_topology spec with
              | Ok t -> Cluster.set_default_topology (Some t)
              | Error msg ->
                  Format.eprintf "%s@." msg;
                  Stdlib.exit 2));
          if flowstat then Atm.Flowstat.configure ();
          if paths <> None then Engine.Pathrec.start ();
          (match fault with
          | None -> ()
          | Some spec -> (
              match Engine.Fault.parse spec with
              | Ok f ->
                  Format.printf "fault injection: %a@." Engine.Fault.pp_spec f;
                  Engine.Fault.configure (Some f)
              | Error msg ->
                  Format.eprintf "bad --fault spec: %s@." msg;
                  Stdlib.exit 2));
          if trace <> None then Engine.Trace.start ();
          if spans <> None || breakdown || report <> None then
            Engine.Span.start ();
          if pcap <> None then Engine.Pcapng.start ();
          if interval_us <= 0 then begin
            Format.eprintf "--sample-interval must be positive@.";
            Stdlib.exit 2
          end;
          Engine.Timeseries.set_interval (Engine.Sim.us interval_us);
          if profile <> None || report <> None then
            Engine.Profile.(start Virtual);
          if selfprof <> None || report <> None then
            Engine.Profile.(start Wall);
          if timeseries <> None || report <> None then
            Engine.Timeseries.start ();
          (match postmortem with
          | Some dir -> Engine.Recorder.start ~dir ()
          | None -> ());
          let finish code =
            let code = ref code in
            let or_fail what f =
              try f ()
              with Sys_error msg ->
                Format.eprintf "cannot write %s: %s@." what msg;
                code := 1
            in
            (* stop before any dump so the folded per-layer counters land
               in --metrics output and the report sections *)
            Engine.Profile.(stop Wall);
            if breakdown then Experiments.Breakdown.print_report ();
            (match trace with
            | Some path ->
                or_fail "trace" (fun () ->
                    Engine.Trace.write_chrome_file path;
                    let dropped = Engine.Trace.dropped_events () in
                    Format.printf "wrote %d trace events to %s%s@."
                      (Engine.Trace.total_events () - dropped)
                      path
                      (if dropped = 0 then ""
                       else
                         Printf.sprintf
                           " (%d older events beyond the ring dropped)" dropped))
            | None -> ());
            (match spans with
            | Some path ->
                or_fail "spans" (fun () ->
                    Engine.Span.write_file path;
                    Format.printf "wrote %d spans to %s@." (Engine.Span.count ())
                      path)
            | None -> ());
            (match pcap with
            | Some path ->
                or_fail "pcap" (fun () ->
                    Engine.Pcapng.write_file path;
                    Format.printf "wrote %d captured packets to %s@."
                      (Engine.Pcapng.packet_count ())
                      path)
            | None -> ());
            (match metrics with
            | Some path ->
                or_fail "metrics" (fun () ->
                    Engine.Metrics.write_file path;
                    Format.printf "wrote metrics to %s@." path)
            | None -> ());
            (match profile with
            | Some path ->
                or_fail "profile" (fun () ->
                    Engine.Profile.(write_folded Virtual) path;
                    Format.printf
                      "wrote folded profile (%d hosts, %d ns elapsed) to %s@."
                      (List.length (Engine.Profile.hosts ()))
                      Engine.Profile.(elapsed Virtual)
                      path)
            | None -> ());
            (match selfprof with
            | Some path ->
                or_fail "selfprof" (fun () ->
                    Engine.Profile.(write_folded Wall) path;
                    Format.printf
                      "wrote wall-time self-profile (%d ns elapsed) to %s@."
                      Engine.Profile.(elapsed Wall)
                      path;
                    Format.printf "%a" Engine.Profile.pp_summary ();
                    if Engine.Sim.tombstone_ratio () > 0.25 then
                      Logs.warn (fun m ->
                          m
                            "tombstone ratio %.0f%%: over a quarter of \
                             event-queue traffic is cancelled events, pure \
                             pop-path waste"
                            (Engine.Sim.tombstone_ratio () *. 100.)))
            | None -> ());
            (match paths with
            | Some path ->
                or_fail "paths" (fun () ->
                    (* settle any still-provisional train-synthesized
                       records before exporting *)
                    Engine.Metrics.flush ();
                    Engine.Pathrec.write_json path;
                    Format.printf "wrote %d path records to %s%s@."
                      (Engine.Pathrec.count ())
                      path
                      (if Engine.Pathrec.dropped () = 0 then ""
                       else
                         Printf.sprintf " (%d beyond the ring dropped)"
                           (Engine.Pathrec.dropped ())))
            | None -> ());
            (match timeseries with
            | Some path ->
                or_fail "timeseries" (fun () ->
                    Engine.Timeseries.write_json path;
                    let csv = Filename.remove_extension path ^ ".csv" in
                    Engine.Timeseries.write_csv csv;
                    Format.printf "wrote %d timeseries to %s and %s@."
                      (List.length (Engine.Timeseries.series ()))
                      path csv)
            | None -> ());
            (match report with
            | Some path ->
                or_fail "report" (fun () ->
                    let sections =
                      List.concat (List.rev !report_acc)
                      @ [
                          Engine.Report.breakdown_section ();
                          Engine.Report.sketch_section ();
                          Engine.Report.timeseries_section ();
                          Engine.Report.profile_section ();
                          Engine.Report.engine_section ();
                          Engine.Report.metrics_section ();
                        ]
                    in
                    Engine.Report.write ~path
                      ~title:("U-Net simulation report: " ^ name)
                      sections;
                    Format.printf "wrote report to %s@." path)
            | None -> ());
            Stdlib.exit !code
          in
          let collect_report = report <> None in
          match out with
          | Some dir -> finish (write_plotdata dir quick)
          | None ->
              if name = "all" then finish (run_all ~collect_report quick check)
              else finish (run_experiment ~collect_report name quick check))
      $ experiment $ quick $ check $ out $ verbose
      $ trace_file $ metrics_file $ spans_file $ pcap_file $ breakdown $ fault
      $ per_cell $ profile_file $ selfprof_file $ timeseries_file
      $ sample_interval
      $ report_file $ paths_file $ flowstat $ topology
      $ postmortem_dir)
  in
  Cmd.v (Cmd.info "unetsim" ~doc) term

let () = Stdlib.exit (Cmd.eval cmd)
