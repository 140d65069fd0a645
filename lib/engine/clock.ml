(* One owner for "which simulator is live": its clock, the time every
   earlier simulator ran, and how many simulators there have been. *)

let clock : (unit -> int) ref = ref (fun () -> 0)
let base_ns = ref 0
let gen = ref 0

let attach f =
  base_ns := !base_ns + !clock ();
  clock := f;
  incr gen

let now () = !clock ()
let base () = !base_ns
let cumulative () = !base_ns + !clock ()
let generation () = !gen
