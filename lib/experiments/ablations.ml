(* Ablations of the design decisions DESIGN.md §5 calls out. Each isolates
   one mechanism the paper credits for its performance and measures the
   system with it turned off (or swept):

   - inline   : the single-cell fast path of §3.4/§4.2.2
   - firmware : the custom U-Net firmware vs Fore's original (§4.2.1)
   - window   : the UAM flow-control window w (§5.1.1)
   - tcp      : segment size and delayed acks (§7.8)
   - upcall   : polling vs signal-driven reception (+~30 µs/end, §4.2.3) *)

open Engine

(* shared raw ping-pong over an arbitrary cluster *)
let rtt_on cluster ~size ~iters ~recv_extra_ns =
  let n0 = Cluster.node cluster 0 and n1 = Cluster.node cluster 1 in
  let ep0, a0 = Cluster.simple_endpoint n0 in
  let ep1, _ = Cluster.simple_endpoint n1 in
  let ch0, ch1 = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  let payload = Common.payload_of_size a0 size in
  ignore
    (Proc.spawn ~name:"echo" cluster.sim (fun () ->
         let rec loop () =
           let d = Unet.recv n1.unet ep1 in
           if recv_extra_ns > 0 then Host.Cpu.charge n1.cpu recv_extra_ns;
           ignore (Unet.send n1.unet ep1 (Unet.Desc.tx ~chan:ch1 d.rx_payload));
           Common.return_buffers n1 ep1 d;
           loop ()
         in
         loop ()));
  let sum = ref 0. and n = ref 0 in
  ignore
    (Proc.spawn ~name:"client" cluster.sim (fun () ->
         for _ = 1 to iters do
           let t0 = Sim.now cluster.sim in
           ignore (Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload));
           let d = Unet.recv n0.unet ep0 in
           if recv_extra_ns > 0 then Host.Cpu.charge n0.cpu recv_extra_ns;
           Common.return_buffers n0 ep0 d;
           sum := !sum +. Sim.to_us (Sim.now cluster.sim - t0);
           incr n
         done));
  Sim.run ~until:(Sim.sec 30) cluster.sim;
  !sum /. float_of_int (max 1 !n)

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
      with_opt = rtt_on (Cluster.create ()) ~size:16 ~iters ~recv_extra_ns:0;
      without_opt =
        rtt_on (Cluster.create ~nic_config:no_opt ()) ~size:16 ~iters
          ~recv_extra_ns:0;
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

  let bw_on nic ~size ~count =
    let c = Cluster.create ~nic () in
    let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
    let ep0, a0 = Cluster.simple_endpoint ~free_buffers:4 n0 in
    let ep1, _ = Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 n1 in
    let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
    let payload = Common.payload_of_size a0 size in
    let received = ref 0 and done_at = ref 0 in
    ignore
      (Proc.spawn c.sim (fun () ->
           while !received < count do
             let d = Unet.recv n1.unet ep1 in
             incr received;
             Common.return_buffers n1 ep1 d
           done;
           done_at := Sim.now c.sim));
    ignore
      (Proc.spawn c.sim (fun () ->
           let sent = ref 0 in
           while !sent < count do
             match Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload) with
             | Ok () -> incr sent
             | Error Unet.Queue_full -> Proc.sleep c.sim ~time:(Sim.us 10)
             | Error e -> Fmt.failwith "%a" Unet.pp_error e
           done));
    Sim.run ~until:(Sim.sec 60) c.sim;
    float_of_int (size * !received) /. 1e6 /. Sim.to_sec !done_at

  let run ~quick =
    let iters = if quick then 15 else 50 in
    let count = if quick then 150 else 500 in
    {
      unet_rtt =
        rtt_on (Cluster.create ()) ~size:16 ~iters ~recv_extra_ns:0;
      fore_rtt =
        rtt_on (Cluster.create ~nic:Cluster.Sba200_fore ()) ~size:16 ~iters
          ~recv_extra_ns:0;
      unet_bw = bw_on Cluster.Sba200_unet ~size:4096 ~count;
      fore_bw = bw_on Cluster.Sba200_fore ~size:4096 ~count;
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

  let store_bw ~window ~count ~size =
    let config = { Uam.default_config with window } in
    let c = Cluster.create () in
    let a0 = Uam.create ~config (Cluster.node c 0).unet ~rank:0 ~nodes:2 in
    let a1 = Uam.create ~config (Cluster.node c 1).unet ~rank:1 ~nodes:2 in
    Uam.connect a0 a1;
    let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
    Uam.Xfer.register_region x1 ~id:1 (Bytes.make (max size 8192) '\000');
    let block = Bytes.make size '\000' in
    let t_done = ref 0 in
    ignore
      (Proc.spawn c.sim (fun () -> Uam.poll_until a1 (fun () -> false)));
    ignore
      (Proc.spawn c.sim (fun () ->
           for _ = 1 to count do
             Uam.Xfer.store x0 ~dst:1 ~region:1 ~offset:0 block
           done;
           Uam.Xfer.quiet x0;
           t_done := Sim.now c.sim));
    Sim.run ~until:(Sim.sec 120) c.sim;
    float_of_int (size * count) /. 1e6 /. Sim.to_sec !t_done

  let run ~quick =
    let count = if quick then 100 else 300 in
    {
      points =
        List.map
          (fun w -> (w, store_bw ~window:w ~count ~size:4096))
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

  let stream ~cfg ~total =
    let c = Cluster.create () in
    let mk u = Ipstack.Ipv4.attach (fst (Ipstack.Iface.unet_pair u u)) in
    ignore mk;
    (* build the two stacks by hand so the TCP config is fully ours *)
    let ifa, ifb =
      Ipstack.Iface.unet_pair (Cluster.node c 0).unet (Cluster.node c 1).unet
    in
    let ipa = Ipstack.Ipv4.attach ifa ~addr:0 in
    let ipb = Ipstack.Ipv4.attach ifb ~addr:1 in
    let sa = Ipstack.Tcp.attach ipa cfg in
    let sb = Ipstack.Tcp.attach ipb cfg in
    let l = Ipstack.Tcp.listen sb ~port:80 in
    let received = ref 0 and t_done = ref 0 in
    ignore
      (Proc.spawn c.sim (fun () ->
           let conn = Ipstack.Tcp.accept l in
           let rec loop () =
             let chunk = Ipstack.Tcp.recv conn ~max:65536 in
             if Bytes.length chunk > 0 then begin
               received := !received + Bytes.length chunk;
               loop ()
             end
           in
           loop ();
           t_done := Sim.now c.sim));
    ignore
      (Proc.spawn c.sim (fun () ->
           let conn = Ipstack.Tcp.connect sa ~dst:1 ~dst_port:80 () in
           let chunk = Bytes.make 8192 '\000' in
           let sent = ref 0 in
           while !sent < total do
             Ipstack.Tcp.send conn chunk;
             sent := !sent + 8192
           done;
           Ipstack.Tcp.close conn));
    Sim.run ~until:(Sim.sec 120) c.sim;
    float_of_int !received /. 1e6 /. Sim.to_sec !t_done

  (* the §7.8 pathology: an isolated segment's ack waits for the 200 ms
     delayed-ack timer when no reverse traffic piggybacks it *)
  let isolated_ack_us ~cfg =
    let c = Cluster.create () in
    let ifa, ifb =
      Ipstack.Iface.unet_pair (Cluster.node c 0).unet (Cluster.node c 1).unet
    in
    let sa = Ipstack.Tcp.attach (Ipstack.Ipv4.attach ifa ~addr:0) cfg in
    let sb = Ipstack.Tcp.attach (Ipstack.Ipv4.attach ifb ~addr:1) cfg in
    let l = Ipstack.Tcp.listen sb ~port:80 in
    ignore (Proc.spawn c.sim (fun () -> ignore (Ipstack.Tcp.accept l)));
    let result = ref nan in
    ignore
      (Proc.spawn c.sim (fun () ->
           let conn = Ipstack.Tcp.connect sa ~dst:1 ~dst_port:80 () in
           Proc.sleep c.sim ~time:(Sim.ms 2);
           let t0 = Sim.now c.sim in
           Ipstack.Tcp.send conn (Bytes.make 64 '\000');
           while Ipstack.Tcp.unacked conn > 0 do
             Proc.sleep c.sim ~time:(Sim.us 50)
           done;
           result := Sim.to_us (Sim.now c.sim - t0)));
    Sim.run ~until:(Sim.sec 10) c.sim;
    !result

  let echo_rtt ~cfg ~iters =
    let c = Cluster.create () in
    let ifa, ifb =
      Ipstack.Iface.unet_pair (Cluster.node c 0).unet (Cluster.node c 1).unet
    in
    let sa = Ipstack.Tcp.attach (Ipstack.Ipv4.attach ifa ~addr:0) cfg in
    let sb = Ipstack.Tcp.attach (Ipstack.Ipv4.attach ifb ~addr:1) cfg in
    let l = Ipstack.Tcp.listen sb ~port:80 in
    ignore
      (Proc.spawn c.sim (fun () ->
           let conn = Ipstack.Tcp.accept l in
           try
             let rec loop () =
               Ipstack.Tcp.send conn (Ipstack.Tcp.recv_exact conn ~len:64);
               loop ()
             in
             loop ()
           with End_of_file -> ()));
    let sum = ref 0. and n = ref 0 in
    ignore
      (Proc.spawn c.sim (fun () ->
           let conn = Ipstack.Tcp.connect sa ~dst:1 ~dst_port:80 () in
           for _ = 1 to iters do
             let t0 = Sim.now c.sim in
             Ipstack.Tcp.send conn (Bytes.make 64 '\000');
             ignore (Ipstack.Tcp.recv_exact conn ~len:64);
             sum := !sum +. Sim.to_us (Sim.now c.sim - t0);
             incr n
           done;
           Ipstack.Tcp.close conn));
    Sim.run ~until:(Sim.sec 60) c.sim;
    !sum /. float_of_int (max 1 !n)

  let run ~quick =
    let total = (if quick then 1 else 3) * 1024 * 1024 in
    let iters = if quick then 10 else 30 in
    let base = Ipstack.Tcp.unet_config () in
    {
      mss_points =
        List.map
          (fun mss -> (mss, stream ~cfg:{ base with mss } ~total))
          [ 512; 1024; 2048; 4096 ];
      no_delack_rtt = echo_rtt ~cfg:base ~iters;
      delack_rtt = echo_rtt ~cfg:{ base with delayed_ack = true } ~iters;
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
      polling = rtt_on (Cluster.create ()) ~size:16 ~iters ~recv_extra_ns:0;
      signal =
        rtt_on (Cluster.create ()) ~size:16 ~iters ~recv_extra_ns:signal_ns;
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
