(** §7.8 after Romanow & Floyd: TCP over a congested ATM switch port — a
    single dropped cell discards the whole segment, so large segments
    amplify loss. Two flows converge on a port with a shallow cell buffer,
    contested at the paper's 2048-byte MSS and at a 9148-byte MSS. *)

type flow = {
  goodput_mb : float;
  retransmits : int;
  finished_at : Engine.Sim.time;
}

type contest = {
  mss : int;
  flows : flow list;
  makespan_aggregate_mb : float;
  cells_dropped : int;
  reassembly_errors : int;
}

type t = { small_seg : contest; large_seg : contest }

val run : quick:bool -> t
val print : t -> unit
val checks : t -> (string * bool) list
