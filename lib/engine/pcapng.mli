(** Virtual-time pcapng capture.

    Captures simulated frames (ATM cells, Ethernet frames) with
    virtual-nanosecond timestamps into the pcapng container format, so a
    run opens directly in Wireshark. Each interface declares
    [if_tsresol = 9], making one timestamp tick one virtual nanosecond.

    Process-global like {!Trace}: [Sim.create] registers the live
    simulator's clock. Disabled by default; {!capture} costs one boolean
    read when off, so taps can build their bytes behind {!enabled}.

    A capture rides the cell-train fast path: a committed train adds its
    cells' records through {!on_train}, so the file is the same whichever
    path carried the cells. *)

val linktype_ethernet : int
(** LINKTYPE_ETHERNET (1). *)

val linktype_sunatm : int
(** LINKTYPE_SUNATM (123): 4-byte pseudo-header (flags, VPI, VCI
    big-endian) before the cell payload. *)

val enabled : unit -> bool

val start : unit -> unit
(** Enable capture into a fresh packet store. *)

val stop : unit -> unit
val clear : unit -> unit

val iface : name:string -> linktype:int -> int
(** Register (or look up) a capture interface; returns its handle for
    {!capture} and {!on_train}, in registration order. Idempotent per
    (name, linktype). The file numbers interfaces in its own order
    ({!to_string}). *)

val capture : iface:int -> string -> unit
(** Record a packet on [iface] at the current virtual time. *)

val on_train : Trainplan.t -> iface:int -> (int -> string) -> Trainplan.undo
(** [on_train plan ~iface cell] records cell [i]'s bytes [cell i] on
    [iface] at [plan.up_accepts.(i)], the instant its uplink accepts it.
    The undo drops the records a truncation cut. Call it only while
    {!enabled}. *)

val packet_count : unit -> int

val packet_times : unit -> int list
(** Packet timestamps in file order (for monotonicity checks). *)

val to_string : unit -> string
(** The full capture: SHB, IDBs, then EPBs sorted by run
    ([Clock.generation]), timestamp, interface name and bytes. Each
    interface that carries a packet is described in the order of its
    first one. The bytes depend only on what was captured, not on capture
    order.
    Little-endian, no other block types. *)

val write_file : string -> unit
