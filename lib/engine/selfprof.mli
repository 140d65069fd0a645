val now_ns : unit -> int
(** The monotonic clock, in nanoseconds (arbitrary origin). *)
