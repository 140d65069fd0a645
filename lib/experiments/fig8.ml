(* Figure 8: TCP bandwidth as a function of the rate at which the
   application generates data. U-Net TCP reaches 14-15 MB/s with just an
   8 KB window; the kernel TCP/ATM combination stays near half the fiber
   even with a 64 KB window. *)

open Engine

type t = {
  unet_8k : Stats.Series.t;
  kernel_64k : Stats.Series.t;
  kernel_8k : Stats.Series.t;
}

let rates = [ 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18. ]

let run ~quick =
  let total = (if quick then 1 else 4) * 1024 * 1024 in
  let curve name ~path ~window =
    Stats.Series.make name
      (List.map
         (fun rate ->
           ( rate,
             Common.tcp_stream ~total ~app_rate_mb:rate
               (Common.tcp_bed ~window path) ))
         rates)
  in
  {
    unet_8k = curve "U-Net TCP, 8 KB window (MB/s)" ~path:Common.Unet_path ~window:(8 * 1024);
    kernel_64k =
      curve "kernel TCP/ATM, 64 KB window (MB/s)" ~path:Common.Kernel_atm
        ~window:(64 * 1024);
    kernel_8k =
      curve "kernel TCP/ATM, 8 KB window (MB/s)" ~path:Common.Kernel_atm
        ~window:(8 * 1024);
  }

let print t =
  Format.printf
    "Figure 8: TCP bandwidth vs application data generation rate (paper: \
     U-Net reaches 14-15 MB/s with an 8 KB window; kernel stalls near half \
     the fiber even at 64 KB)@.@.";
  Common.print_series [ t.unet_8k; t.kernel_64k; t.kernel_8k ]

let checks t =
  let y = Stats.Series.y_at in
  [
    ( "U-Net TCP tracks the offered rate at 8 MB/s",
      Float.abs (y t.unet_8k 8. -. 8.) <= 1. );
    ("U-Net TCP with 8 KB window reaches >= 14 MB/s", y t.unet_8k 18. >= 14.);
    ( "kernel TCP tops out at ~55% of the fiber with 64 KB windows",
      y t.kernel_64k 18. <= 0.62 *. 15.86 );
    ( "kernel TCP is window-starved at 8 KB (well below its 64 KB ceiling)",
      y t.kernel_8k 18. < 0.7 *. y t.kernel_64k 18. );
    ( "U-Net TCP beats kernel TCP at full offered load",
      y t.unet_8k 18. > y t.kernel_64k 18. );
  ]
