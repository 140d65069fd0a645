type outcome = {
  o_print : unit -> unit;
  o_checks : (string * bool) list;
  o_series : (string * (float * float) list) list;
  o_members : (string * (float * Engine.Benchgate.gate)) list;
  o_sections : string list;
}

type experiment = {
  name : string;
  description : string;
  run : quick:bool -> outcome;
}

(* Adapter from the per-figure module shape (run/print/checks over a result
   record) to the single-run outcome: the experiment executes once and the
   outcome carries everything derived from that one execution. *)
let exp ?series ?members ?sections name description run print checks =
  {
    name;
    description;
    run =
      (fun ~quick ->
        let t = run ~quick in
        {
          o_print = (fun () -> print t);
          o_checks = checks t;
          o_series = (match series with None -> [] | Some f -> f t);
          o_members = (match members with None -> [] | Some f -> f t);
          o_sections = (match sections with None -> [] | Some f -> f t);
        });
  }

let curves (l : Engine.Stats.Series.t list) =
  List.map
    (fun (s : Engine.Stats.Series.t) -> (s.Engine.Stats.Series.label, s.points))
    l

let all =
  [
    exp "table1"
      "SBA-100 single-cell round-trip cost breakup (66 us RTT, 6.8 MB/s @ 1KB)"
      Table1.run Table1.print Table1.checks;
    exp "table2"
      "machine characteristics: CM-5, Meiko CS-2, U-Net ATM cluster"
      Table2.run Table2.print Table2.checks;
    exp "table3" "U-Net latency and bandwidth summary (65..157 us, ~120 Mb/s)"
      Table3.run Table3.print Table3.checks;
    exp "fig3" "round-trip times vs message size (raw U-Net, UAM, UAM xfer)"
      Fig3.run Fig3.print Fig3.checks
      ~series:(fun (t : Fig3.t) -> curves [ t.raw; t.uam_single; t.uam_xfer ]);
    exp "fig4" "bandwidth vs message size (AAL5 limit, raw U-Net, UAM store/get)"
      Fig4.run Fig4.print Fig4.checks
      ~series:(fun (t : Fig4.t) ->
        curves [ t.aal5_limit; t.raw; t.store; t.get ]);
    exp "fig5" "seven Split-C benchmarks on CM-5 / U-Net ATM / Meiko CS-2"
      Fig5.run Fig5.print Fig5.checks;
    exp "fig6" "kernel UDP/TCP round-trip latency: ATM vs Ethernet"
      Fig6.run Fig6.print Fig6.checks
      ~series:(fun (t : Fig6.t) ->
        curves [ t.udp_atm; t.udp_eth; t.tcp_atm; t.tcp_eth ]);
    exp "fig7" "UDP bandwidth vs size: kernel sawtooth and losses vs U-Net"
      Fig7.run Fig7.print Fig7.checks
      ~series:(fun (t : Fig7.t) ->
        curves [ t.kernel_sent; t.kernel_received; t.unet_received ]);
    exp "fig8" "TCP bandwidth vs application data generation rate"
      Fig8.run Fig8.print Fig8.checks
      ~series:(fun (t : Fig8.t) ->
        curves [ t.unet_8k; t.kernel_64k; t.kernel_8k ]);
    exp "fig9" "U-Net UDP and TCP round-trip latency vs message size"
      Fig9.run Fig9.print Fig9.checks
      ~series:(fun (t : Fig9.t) -> curves [ t.raw; t.udp; t.tcp ]);
    exp "breakdown"
      "measured Table 2: per-phase span attribution of the UAM round trip"
      Breakdown.run Breakdown.print Breakdown.checks;
    exp "resources" "what bounds the number of network-active processes (§4.2.4)"
      Resources.run Resources.print Resources.checks;
    exp "scaling" "cluster-size sweep: bulk sort + all-to-all (extension)"
      Scaling.run Scaling.print Scaling.checks;
    exp "nfs-workload" "the Berkeley NFS trace shape of §2.1, U-Net vs kernel"
      Workload_nfs.run Workload_nfs.print Workload_nfs.checks;
    exp "congestion" "TCP segment size under ATM cell loss (§7.8)"
      Congestion.run Congestion.print Congestion.checks;
    (* ablations of the design decisions (DESIGN.md §5) *)
    exp "ablation-inline" "single-cell fast path on/off"
      Ablations.Inline.run Ablations.Inline.print Ablations.Inline.checks;
    exp "ablation-firmware" "custom U-Net firmware vs Fore's original"
      Ablations.Firmware.run Ablations.Firmware.print Ablations.Firmware.checks;
    exp "ablation-window" "UAM flow-control window sweep"
      Ablations.Window.run Ablations.Window.print Ablations.Window.checks;
    exp "ablation-tcp" "TCP segment size sweep and delayed acks"
      Ablations.Tcp_tuning.run Ablations.Tcp_tuning.print
      Ablations.Tcp_tuning.checks;
    exp "ablation-upcall" "polling vs signal-driven reception"
      Ablations.Upcall.run Ablations.Upcall.print Ablations.Upcall.checks;
    (* fault injection (extension): runs last so the cumulative copy
       counters in the earlier experiments' snapshots keep their values *)
    exp "loss-sweep"
      "UAM and TCP recovery under seeded cell loss (fault injection)"
      Loss_sweep.run Loss_sweep.print Loss_sweep.checks
      ~series:Loss_sweep.series;
    (* multi-stage fabric (extension, DESIGN.md §16): appended after
       loss-sweep so the earlier experiments' cumulative-counter snapshots
       keep their historical values *)
    exp "fabric"
      "1024-endpoint fat-tree: incast into one egress port, elephant/mice mix"
      Fabric.run Fabric.print Fabric.checks ~members:Fabric.members
      ~sections:(fun (t : Fabric.t) -> t.sections);
    (* the simulator's own hot-path cost: appended after fabric, so the
       earlier experiments' cumulative-counter snapshots keep their
       values *)
    exp "engine-throughput"
      "simulator hot-path cost: events and allocated words per message"
      Enginebench.run Enginebench.print Enginebench.checks
      ~members:Enginebench.members;
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let names = List.map (fun e -> e.name) all

(* The experiment-specific part of an HTML run report: description, the
   paper's claims as a PASS/FAIL table, and the figure's curves. The
   registry-wide telemetry sections (breakdown, timeseries, flamegraph,
   metrics) are appended by the CLI since they span all experiments run. *)
let report_sections (e : experiment) (o : outcome) =
  let open Engine in
  let body =
    Printf.sprintf "<p>%s</p>\n%s"
      (Report.escape e.description)
      (Report.checks_table o.o_checks)
  in
  (Report.section ~title:("Experiment: " ^ e.name) body
  ::
  (match o.o_series with
  | [] -> []
  | curves ->
      [
        Report.section ~title:(e.name ^ " curves") (Report.curves_html curves);
      ]))
  @ o.o_sections
