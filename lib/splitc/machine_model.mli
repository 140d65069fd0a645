(** LogP-style models of the parallel machines U-Net is compared against in
    §6 (Table 2): per-message CPU overhead o, network round-trip latency,
    bulk bandwidth, and CPU speed. The network is reliable and ordered, as
    on the real machines; the same {!Transport.t} interface lets Split-C
    programs run unmodified. *)

type spec = {
  name : string;
  effective_mips : float;
      (** local-computation rate (clock x rough IPC): the "CPU speed" column
          of Table 2 adjusted for SPARC-2 vs SuperSPARC issue width *)
  overhead_us : float;  (** per-message processor overhead o *)
  rtt_us : float;  (** small-message request-reply round-trip time *)
  bandwidth_mb : float;  (** bulk per-byte bandwidth *)
}

val cm5 : spec
(** 33 MHz SPARC-2, o = 3 µs, 12 µs RTT, 10 MB/s. *)

val meiko_cs2 : spec
(** 40 MHz SuperSPARC, o = 11 µs, 25 µs RTT, 39 MB/s. *)

type fabric

val create : Engine.Sim.t -> nodes:int -> spec -> fabric
val transports : fabric -> Transport.t array
