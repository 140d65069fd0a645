(* The monotonic clock behind the wall-clock profiler ([Profile] with
   [Wall]) and the wall-time benchmarks. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
