(** Virtual-time pcapng capture.

    Captures simulated frames (ATM cells, Ethernet frames) with
    virtual-nanosecond timestamps into the pcapng container format, so a
    run opens directly in Wireshark. Each interface declares
    [if_tsresol = 9], making one timestamp tick one virtual nanosecond.

    Process-global like {!Trace}: [Sim.create] registers the live
    simulator's clock. Disabled by default; {!capture} costs one boolean
    read when off, so taps can build their bytes behind {!enabled}. *)

val linktype_ethernet : int
(** LINKTYPE_ETHERNET (1). *)

val linktype_sunatm : int
(** LINKTYPE_SUNATM (123): 4-byte pseudo-header (flags, VPI, VCI
    big-endian) before the cell payload. *)

val enabled : unit -> bool

(** A full capture needs every cell on the wire, so enabling pcap pins
    the per-cell path ({!Trainmode.pinned}) for the whole run. *)

val start : unit -> unit
(** Enable capture into a fresh packet store. *)

val stop : unit -> unit
val clear : unit -> unit

val iface : name:string -> linktype:int -> int
(** Register (or look up) a capture interface; returns its pcapng
    interface id. Idempotent per (name, linktype). *)

val capture : iface:int -> string -> unit
(** Record a packet on [iface] at the current virtual time. *)

val packet_count : unit -> int

val packet_times : unit -> int list
(** Capture timestamps in capture order (for monotonicity checks). *)

val to_string : unit -> string
(** The full capture: SHB, IDBs in registration order, then EPBs in
    capture order. Little-endian, no other block types. *)

val write_file : string -> unit
