(* Ablations of the design decisions DESIGN.md §5 calls out. Each isolates
   one mechanism the paper credits for its performance and measures the
   system with it turned off (or swept):

   - inline   : the single-cell fast path of §3.4/§4.2.2
   - firmware : the custom U-Net firmware vs Fore's original (§4.2.1)
   - window   : the UAM flow-control window w (§5.1.1)
   - tcp      : segment size and delayed acks (§7.8)
   - upcall   : polling vs signal-driven reception (+~30 µs/end, §4.2.3) *)

open Engine

(* ------------------------------------------------------------------ *)
(* inline: single-cell optimization on/off                              *)

module Inline = struct
  type t = { with_opt : float; without_opt : float }

  let run ~quick =
    let iters = if quick then 15 else 50 in
    let base = Ni.I960_nic.sba200_unet in
    let no_opt =
      {
        base with
        Ni.I960_nic.single_cell_optimization = false;
        name = "SBA-200/U-Net/no-fast-path";
      }
    in
    {
      with_opt = Common.raw_rtt ~size:16 ~iters ();
      without_opt = Common.raw_rtt ~nic_config:no_opt ~size:16 ~iters ();
    }

  let print t =
    Format.printf
      "Ablation: single-cell fast path (inline descriptors, no buffer pop)@.@.";
    Common.print_table
      ~header:[ "configuration"; "16 B RTT (us)" ]
      ~rows:
        [
          [ "fast path on (the paper's firmware)"; Printf.sprintf "%.1f" t.with_opt ];
          [ "fast path off"; Printf.sprintf "%.1f" t.without_opt ];
        ]

  let checks t =
    [
      ( "the single-cell optimization buys roughly the 120-65 us gap",
        t.without_opt -. t.with_opt >= 35. && t.without_opt -. t.with_opt <= 75. );
    ]
end

(* ------------------------------------------------------------------ *)
(* firmware: U-Net firmware vs Fore's original                          *)

module Firmware = struct
  type t = { unet_rtt : float; fore_rtt : float; unet_bw : float; fore_bw : float }

  let run ~quick =
    let iters = if quick then 15 else 50 in
    let count = if quick then 150 else 500 in
    let bw nic =
      Common.raw_bandwidth ~nic ~repoll:(Sim.us 10) ~until:(Sim.sec 60)
        ~size:4096 ~count ()
    in
    {
      unet_rtt = Common.raw_rtt ~size:16 ~iters ();
      fore_rtt = Common.raw_rtt ~nic:Cluster.Sba200_fore ~size:16 ~iters ();
      unet_bw = bw Cluster.Sba200_unet;
      fore_bw = bw Cluster.Sba200_fore;
    }

  let print t =
    Format.printf
      "Ablation: custom U-Net firmware vs Fore's original firmware \
       (§4.2.1: 160 us RTT, 13 MB/s @4KB)@.@.";
    Common.print_table
      ~header:[ "firmware"; "16 B RTT (us)"; "4 KB bandwidth (MB/s)" ]
      ~rows:
        [
          [ "U-Net (redesigned)"; Printf.sprintf "%.1f" t.unet_rtt;
            Printf.sprintf "%.1f" t.unet_bw ];
          [ "Fore original"; Printf.sprintf "%.1f" t.fore_rtt;
            Printf.sprintf "%.1f" t.fore_bw ];
        ]

  let checks t =
    [
      ( "Fore firmware RTT ~160 us (2.5x the U-Net firmware's 65)",
        t.fore_rtt > 2.2 *. t.unet_rtt && t.fore_rtt < 3. *. t.unet_rtt );
      ("Fore firmware bandwidth ~13 MB/s", t.fore_bw >= 11.5 && t.fore_bw <= 14.5);
      ("U-Net firmware saturates the fiber", t.unet_bw >= 15.);
    ]
end

(* ------------------------------------------------------------------ *)
(* window: the UAM flow-control window                                  *)

module Window = struct
  type t = { points : (int * float) list (* w, 4 KB store bandwidth *) }

  let run ~quick =
    let count = if quick then 100 else 300 in
    {
      points =
        List.map
          (fun window ->
            ( window,
              Common.uam_store_bandwidth
                ~config:{ Uam.default_config with window }
                ~count ~size:4096 () ))
          [ 1; 2; 4; 8; 16 ];
    }

  let print t =
    Format.printf
      "Ablation: UAM flow-control window w (§5.1.1) — 4 KB store bandwidth@.@.";
    Common.print_table
      ~header:[ "w"; "bandwidth (MB/s)" ]
      ~rows:
        (List.map
           (fun (w, bw) -> [ string_of_int w; Printf.sprintf "%.2f" bw ])
           t.points)

  let checks t =
    let bw w = List.assoc w t.points in
    [
      ("w=1 is latency-bound (well below the fiber)", bw 1 < 11.);
      ("w=2 already covers the bandwidth-delay product", bw 2 >= 13.);
      ("beyond w=2 the window is not the bottleneck", bw 16 -. bw 2 < 2.);
    ]
end

(* ------------------------------------------------------------------ *)
(* tcp: segment size sweep and delayed acks                             *)

module Tcp_tuning = struct
  type t = {
    mss_points : (int * float) list; (* mss, stream MB/s *)
    no_delack_rtt : float;
    delack_rtt : float;
    no_delack_ack_us : float;
    delack_ack_us : float;
  }

  (* bare stacks on a fresh two-host cluster, so the TCP config is fully
     ours *)
  let bed cfg = Common.tcp_pair (Cluster.create ()) (0, 1) cfg

  (* the §7.8 pathology: an isolated segment's ack waits for the 200 ms
     delayed-ack timer when no reverse traffic piggybacks it *)
  let isolated_ack_us ~cfg =
    let { Common.sim; client; server; server_addr } = bed cfg in
    let l = Ipstack.Tcp.listen server ~port:80 in
    ignore (Proc.spawn sim (fun () -> ignore (Ipstack.Tcp.accept l)));
    let result = ref nan in
    ignore
      (Proc.spawn sim (fun () ->
           let conn =
             Ipstack.Tcp.connect client ~dst:server_addr ~dst_port:80 ()
           in
           Proc.sleep sim ~time:(Sim.ms 2);
           let t0 = Sim.now sim in
           Ipstack.Tcp.send conn (Bytes.make 64 '\000');
           while Ipstack.Tcp.unacked conn > 0 do
             Proc.sleep sim ~time:(Sim.us 50)
           done;
           result := Sim.to_us (Sim.now sim - t0)));
    Sim.run ~until:(Sim.sec 10) sim;
    !result

  let run ~quick =
    let total = (if quick then 1 else 3) * 1024 * 1024 in
    let iters = if quick then 10 else 30 in
    let base = Ipstack.Tcp.unet_config () in
    let echo_rtt cfg =
      Common.tcp_rtt ~iters ~until:(Sim.sec 60) ~size:64 (bed cfg)
    in
    {
      mss_points =
        List.map
          (fun mss ->
            ( mss,
              Common.tcp_stream ~until:(Sim.sec 120) ~total
                (bed { base with mss }) ))
          [ 512; 1024; 2048; 4096 ];
      no_delack_rtt = echo_rtt base;
      delack_rtt = echo_rtt { base with delayed_ack = true };
      no_delack_ack_us = isolated_ack_us ~cfg:base;
      delack_ack_us = isolated_ack_us ~cfg:{ base with delayed_ack = true };
    }

  let print t =
    Format.printf
      "Ablation: U-Net TCP tuning (§7.8) — segment size and delayed acks@.@.";
    Common.print_table
      ~header:[ "MSS (bytes)"; "stream bandwidth (MB/s)" ]
      ~rows:
        (List.map
           (fun (m, bw) -> [ string_of_int m; Printf.sprintf "%.2f" bw ])
           t.mss_points);
    Format.printf "@.";
    Common.print_table
      ~header:[ "acks"; "64 B echo RTT (us)"; "isolated-segment ack (us)" ]
      ~rows:
        [
          [ "immediate (the paper's choice)";
            Printf.sprintf "%.0f" t.no_delack_rtt;
            Printf.sprintf "%.0f" t.no_delack_ack_us ];
          [ "delayed (BSD 200 ms policy)";
            Printf.sprintf "%.0f" t.delack_rtt;
            Printf.sprintf "%.0f" t.delack_ack_us ];
        ]

  let checks t =
    let bw m = List.assoc m t.mss_points in
    [
      ("2048-byte segments suffice for full bandwidth (§7.8)", bw 2048 >= 14.);
      ("512-byte segments lose bandwidth to per-segment costs", bw 512 < bw 2048);
      ( "the paper's standard segment choice is within 5% of the best sweep point",
        let best = List.fold_left (fun a (_, b) -> Float.max a b) 0. t.mss_points in
        bw 2048 >= 0.95 *. best );
      ( "echo traffic piggybacks acks either way (RTTs within 20 us)",
        Float.abs (t.no_delack_rtt -. t.delack_rtt) <= 20. );
      ( "delayed acks multiply isolated-segment ack latency >= 10x (the ack\n\
         \       waits for the 200 ms timer until the sender's own fine-grained\n\
         \       retransmit timer fires a spurious retransmission)",
        t.delack_ack_us >= 10. *. t.no_delack_ack_us
        && t.no_delack_ack_us < 1_000. );
    ]
end

(* ------------------------------------------------------------------ *)
(* upcall: polling vs signal reception                                  *)

module Upcall = struct
  type t = { polling : float; signal : float }

  let signal_ns = 30_000 (* §4.2.3: a UNIX signal adds ~30 us on each end *)

  let run ~quick =
    let iters = if quick then 15 else 50 in
    {
      polling = Common.raw_rtt ~size:16 ~iters ();
      signal = Common.raw_rtt ~recv_extra_ns:signal_ns ~size:16 ~iters ();
    }

  let print t =
    Format.printf
      "Ablation: polling vs signal-driven reception (§4.2.3: a UNIX signal \
       adds ~30 us on each end)@.@.";
    Common.print_table
      ~header:[ "reception"; "16 B RTT (us)" ]
      ~rows:
        [
          [ "polling"; Printf.sprintf "%.1f" t.polling ];
          [ "signal per message"; Printf.sprintf "%.1f" t.signal ];
        ]

  let checks t =
    [
      ( "signals add ~30 us per end (55..65 us per round trip)",
        t.signal -. t.polling >= 55. && t.signal -. t.polling <= 65. );
    ]
end
