(** The measured counterpart of Table 2's latency decomposition: run the
    UAM single-cell round trip with spans on, reconstruct (request, reply)
    span pairs, and attribute the RTT to data-path phases. The phase rows
    telescope exactly to the span round trip, which must match the
    measured RTT within the client's polling slack. *)

type t = {
  rtt_us : float;
  n_pairs : int;
  rows : (string * float) list;
  sum_us : float;
  send_overhead_us : float;
  recv_overhead_us : float;
}

val run : quick:bool -> t
val print : t -> unit
val checks : t -> (string * bool) list

val pp_report : Format.formatter -> unit -> unit
(** Print {!Engine.Span.pp_attribution} for the live span store, plus the
    round-trip decomposition when request/reply pairs are present. Used by
    the CLI's [--breakdown] flag after any experiment run. *)
