(* Figure 6: round-trip latencies of the *kernelized* UDP and TCP over the
   Fore ATM interface and over Ethernet. The paper's point: for small
   messages the ATM path is slower than plain Ethernet — the new network
   does not show through the old software. *)

open Engine

type t = {
  udp_atm : Stats.Series.t;
  udp_eth : Stats.Series.t;
  tcp_atm : Stats.Series.t;
  tcp_eth : Stats.Series.t;
}

let sizes = [ 16; 64; 256; 1024; 2048; 4096; 8192 ]

let run ~quick =
  let iters = if quick then 8 else 25 in
  let mk name f = Stats.Series.make name (Common.sweep sizes f) in
  {
    udp_atm =
      mk "kernel UDP over ATM (us)" (fun size ->
          Common.udp_rtt ~iters ~path:Common.Kernel_atm ~size ());
    udp_eth =
      mk "kernel UDP over Ethernet (us)" (fun size ->
          Common.udp_rtt ~iters ~path:Common.Kernel_ethernet ~size ());
    tcp_atm =
      mk "kernel TCP over ATM (us)" (fun size ->
          Common.tcp_rtt ~iters ~size (Common.tcp_bed Common.Kernel_atm));
    tcp_eth =
      mk "kernel TCP over Ethernet (us)" (fun size ->
          Common.tcp_rtt ~iters ~size (Common.tcp_bed Common.Kernel_ethernet));
  }

let print t =
  Format.printf
    "Figure 6: kernel TCP and UDP round-trip latency over ATM vs Ethernet \
     (paper: ATM is *worse* for small messages)@.@.";
  Common.print_series [ t.udp_atm; t.udp_eth; t.tcp_atm; t.tcp_eth ]

let checks t =
  let y = Stats.Series.y_at in
  [
    ( "small-message kernel UDP is slower over ATM than Ethernet",
      y t.udp_atm 16. > y t.udp_eth 16. );
    ( "small-message kernel TCP is slower over ATM than Ethernet",
      y t.tcp_atm 16. > y t.tcp_eth 16. );
    ( "large-message UDP is much faster over ATM (8 KB)",
      y t.udp_atm 8192. < 0.6 *. y t.udp_eth 8192. );
    ( "large-message TCP is much faster over ATM (8 KB)",
      y t.tcp_atm 8192. < 0.6 *. y t.tcp_eth 8192. );
    ( "kernel ATM small-message RTT is in the ~1 ms class (5x the 138 us of U-Net UDP)",
      y t.udp_atm 16. > 5. *. 138. );
  ]
