(** A minimal IP layer (§7.5): 20-byte headers, protocol demultiplexing, a
    9 KB MTU over U-Net, and no send-side fragmentation (known harmful —
    transports segment instead). Addresses are the cluster host indices. *)

type proto = Udp | Tcp

val proto_number : proto -> int

type t

val attach : Iface.t -> addr:int -> t
val addr : t -> int
val iface : t -> Iface.t
val sim : t -> Engine.Sim.t
val cpu : t -> Host.Cpu.t

val mtu : t -> int
(** Maximum transport payload per packet (iface MTU minus the IP header). *)

val send :
  t ->
  proto ->
  ?ctx:Engine.Span.ctx ->
  dst:int ->
  cost_ns:int ->
  Engine.Buf.t ->
  unit
(** Wrap the transport payload in an IP header (a zero-copy slice prepend)
    and hand it to the interface; [cost_ns] is the transport's send-side
    processing cost (the send half of IP is collapsed into the transport,
    §7.5). Raises on payloads beyond the MTU: no fragmentation. The
    payload's storage must not be mutated after the call (see
    {!Iface.send}). *)

val register :
  t ->
  proto ->
  rx_cost_ns:(Engine.Buf.t -> int) ->
  (src:int -> Engine.Buf.t -> unit) ->
  unit
(** Install the transport's receive handler and cost model. The handler gets
    the transport payload as a view of a packet that owns its storage (safe
    to retain). Packets shorter than a header, failing the header checksum,
    whose length field disagrees with their length, or for an unregistered
    protocol are dropped and counted in
    [ip_rx_dropped_total{proto="ipv4",reason}] ({!rx_dropped}). *)

val rx_dropped : proto:string -> string -> unit
(** Count one receive-side drop in [ip_rx_dropped_total{proto,reason}].
    The family is registered at the first drop, so runs without drops
    dump exactly as before. Reasons in use: [short], [bad_checksum],
    [length_mismatch] (IPv4 and UDP share the first two) and
    [unregistered_proto]. *)

val header_size : int
