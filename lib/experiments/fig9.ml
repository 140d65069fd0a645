(* Figure 9: U-Net UDP and TCP round-trip latencies as a function of
   message size (the counterpart of Figure 6 after removing the kernel):
   138/157 us small-message round trips, growing with the cell count. *)

open Engine

type t = { udp : Stats.Series.t; tcp : Stats.Series.t; raw : Stats.Series.t }

let sizes = [ 8; 64; 256; 512; 1024; 2048; 4096; 8192 ]

let run ~quick =
  let iters = if quick then 8 else 25 in
  {
    udp =
      Stats.Series.make "U-Net UDP RTT (us)"
        (Common.sweep sizes (fun size ->
             Common.udp_rtt ~iters ~path:Common.Unet_path ~size ()));
    tcp =
      Stats.Series.make "U-Net TCP RTT (us)"
        (Common.sweep sizes (fun size ->
             Common.tcp_rtt ~iters ~size (Common.tcp_bed Common.Unet_path)));
    raw =
      Stats.Series.make "raw U-Net RTT (us)"
        (Common.sweep sizes (fun size -> Common.raw_rtt ~iters ~size ()));
  }

let print t =
  Format.printf
    "Figure 9: U-Net UDP and TCP round-trip latency vs message size \
     (paper: 138 us / 157 us small-message round trips)@.@.";
  Common.print_series [ t.raw; t.udp; t.tcp ]

let checks t =
  let y = Stats.Series.y_at in
  [
    ("U-Net UDP small-message (64 B) RTT within 10% of 138 us",
     Float.abs (y t.udp 64. -. 138.) <= 13.8);
    ("U-Net TCP small-message RTT within 10% of 157 us",
     Float.abs (y t.tcp 8. -. 157.) <= 15.7);
    ("TCP RTT above UDP RTT at 64 B (more protocol processing)",
     y t.tcp 64. > y t.udp 64.);
    ("UDP RTT above raw (protocol costs on top of the base path)",
     y t.udp 64. > y t.raw 64.);
    ("RTT grows with size (8 KB >> 8 B)", y t.udp 8192. > 3. *. y t.udp 8.);
  ]
