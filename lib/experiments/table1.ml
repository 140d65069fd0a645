(* Table 1: cost breakup for a single-cell round trip on the SBA-100 (§4.1).
   The configured budget is printed next to the simulated measurement, plus
   the 1 KB-packet bandwidth bound the paper quotes (6.8 MB/s). *)

open Engine

type t = {
  cfg_trap_level_us : float; (* send + receive across the switch, trap level *)
  cfg_aal5_send_us : float;
  cfg_aal5_recv_us : float;
  cfg_one_way_us : float;
  measured_one_way_us : float;
  measured_rtt_us : float;
  measured_bw_1k_mb : float;
}

let wire_one_way_us net_cfg =
  (* serialization on both fibers + propagation + switch transit *)
  let cell_us = 53. *. 8. /. net_cfg.Atm.Network.link_bandwidth_mbps in
  (2. *. cell_us)
  +. (2. *. Sim.to_us net_cfg.Atm.Network.link_propagation)
  +. Sim.to_us net_cfg.Atm.Network.switch_transit

let run ~quick =
  let iters = if quick then 20 else 100 in
  let cfg = Ni.Sba100.default_config in
  let wire = wire_one_way_us Atm.Network.default_config in
  (* trap-level send-and-receive = traps + per-cell software minus the AAL5
     shares, plus the wire *)
  let tx_total = Sim.to_us (cfg.tx_fixed_ns + cfg.tx_per_cell_ns) in
  let rx_total = Sim.to_us (cfg.rx_fixed_ns + cfg.rx_per_cell_ns) in
  let aal5_send = tx_total *. 0.8 in
  let aal5_recv = rx_total *. 0.8 in
  let trap_level =
    wire
    +. Sim.to_us (2 * cfg.trap_ns)
    +. Sim.to_us (cfg.doorbell_ns + cfg.rx_poll_ns)
    +. (tx_total -. aal5_send) +. (rx_total -. aal5_recv)
  in
  let nic = Cluster.Sba100 in
  let rtt = Common.raw_rtt ~nic ~until:(Sim.sec 10) ~size:32 ~iters () in
  {
    cfg_trap_level_us = trap_level;
    cfg_aal5_send_us = aal5_send;
    cfg_aal5_recv_us = aal5_recv;
    cfg_one_way_us = trap_level +. aal5_send +. aal5_recv;
    measured_one_way_us = rtt /. 2.;
    measured_rtt_us = rtt;
    measured_bw_1k_mb =
      Common.raw_bandwidth ~nic ~repoll:(Sim.us 20) ~until:(Sim.sec 60)
        ~size:1024 ~count:(if quick then 200 else 1000) ();
  }

let print t =
  Format.printf "Table 1: single-cell round-trip cost breakup (SBA-100)@.@.";
  Common.print_table
    ~header:[ "Operation"; "Paper (us)"; "Model (us)" ]
    ~rows:
      [
        [
          "1-way send and rcv across switch (trap level)";
          "21";
          Printf.sprintf "%.1f" t.cfg_trap_level_us;
        ];
        [ "Send overhead (AAL5)"; "7"; Printf.sprintf "%.1f" t.cfg_aal5_send_us ];
        [ "Receive overhead (AAL5)"; "5"; Printf.sprintf "%.1f" t.cfg_aal5_recv_us ];
        [ "Total (one-way)"; "33"; Printf.sprintf "%.1f" t.cfg_one_way_us ];
        [
          "Measured one-way (simulated)";
          "33";
          Printf.sprintf "%.1f" t.measured_one_way_us;
        ];
        [
          "Measured round trip (paper: 66)";
          "66";
          Printf.sprintf "%.1f" t.measured_rtt_us;
        ];
        [
          "Bandwidth @ 1KB packets (MB/s, paper: 6.8)";
          "6.8";
          Printf.sprintf "%.2f" t.measured_bw_1k_mb;
        ];
      ]

let within pct target v = Float.abs (v -. target) <= target *. pct

let checks t =
  [
    ("one-way latency within 15% of 33 us", within 0.15 33. t.measured_one_way_us);
    ("round trip within 15% of 66 us", within 0.15 66. t.measured_rtt_us);
    ("1KB bandwidth within 20% of 6.8 MB/s", within 0.2 6.8 t.measured_bw_1k_mb);
  ]
