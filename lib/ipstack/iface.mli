(** A network interface as seen by the IP suite: a way to hand a packet to a
    peer host, with the per-packet protocol-processing cost charged on a
    serialized "stack" process (the user-level protocol library when running
    over U-Net, the kernel's protocol path otherwise).

    Packet transmission and delivery both pass through the host's stack
    process, so protocol processing for concurrent flows serializes on the
    host CPU exactly as it does on a real machine.

    Packets are {!Engine.Buf.t} slices. A caller handing a packet to
    {!send} gives up the right to mutate the memory it views: the interface
    may retain slices of it (in the transmit queue and in frames still on
    the wire) until delivery completes. On the receive side the interface
    always delivers packets that own their storage, so transports may
    retain views of them indefinitely. *)

type t

val sim : t -> Engine.Sim.t
val cpu : t -> Host.Cpu.t
val mtu : t -> int

val send : t -> ?ctx:Engine.Span.ctx -> cost_ns:int -> Engine.Buf.t -> unit
(** Queue a packet for transmission; [cost_ns] is the sender-side protocol
    processing to charge (computed by the caller: UDP/TCP/IP costs). Never
    blocks the caller; safe to call from timers and handlers. The packet's
    underlying storage must not be mutated after the call. [ctx] rides the
    packet down to the U-Net descriptor (ignored by the framed link). *)

val set_rx : t -> rx_cost_ns:(Engine.Buf.t -> int) -> (Engine.Buf.t -> unit) -> unit
(** Install the packet-delivery upcall. [rx_cost_ns] prices the
    receiver-side protocol processing of a packet before the handler runs
    (in stack-process context). Delivered packets own their storage. *)

val tx_drops : t -> int
(** Packets dropped before reaching the wire (interface queue overflow). *)

val queue_length : t -> int
(** Packets currently queued toward the wire. *)

val queue_limit : t -> int

(** Over a dedicated U-Net channel between two hosts — the paper's
    IP-over-U-Net transport (§7.1): all IP traffic between two applications
    rides a single channel. *)
val unet_pair :
  ?mtu:int ->
  ?tx_queue:int ->
  ?encapsulation:bool ->
  Unet.t ->
  Unet.t ->
  t * t
(** [mtu] defaults to the paper's 9 KB IP-over-U-Net MTU. [encapsulation]
    adds the LLC/SNAP header of classical IP-over-ATM (used by the kernel
    baseline; the U-Net path runs bare, §7.1). *)

(** Over a raw point-to-point byte link (used for the Ethernet baseline):
    frames serialize at the link bandwidth; frames larger than the wire MTU
    are fragmented and reassembled transparently, with the per-fragment
    driver cost charged. *)
val framed_pair :
  sim:Engine.Sim.t ->
  cpu_a:Host.Cpu.t ->
  cpu_b:Host.Cpu.t ->
  bandwidth_mbps:float ->
  wire_mtu:int ->
  per_frame_ns:int ->
  propagation:Engine.Sim.time ->
  ?tx_queue:int ->
  ?ip_mtu:int ->
  unit ->
  t * t
