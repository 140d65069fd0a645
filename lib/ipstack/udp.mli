(** UDP (§7.6): port demultiplexing over IP plus an optional 16-bit
    checksum. The U-Net instantiation charges the low user-level path cost
    (with the checksum foldable into the copy) and applies back-pressure to
    the sender; the kernel instantiation charges the full SunOS path
    including mbuf handling, silently drops on transmit-queue overflow
    (§7.4), and enforces the bounded socket receive buffer whose overflow
    loses packets (§7.3). *)

type costs = {
  app_send_ns : int -> int;
      (** charged to the calling process in [sendto] (payload length -> ns):
          the user-level protocol work over U-Net, or the syscall + user-to-
          kernel copy of the kernel path *)
  stack_send_ns : int -> int;
      (** charged on the serialized stack process: zero-ish over U-Net
          (doorbell is charged by U-Net itself), mbuf + protocol + driver
          in the kernel *)
  stack_recv_ns : int -> int;
  app_recv_ns : int -> int;  (** charged in [recvfrom] *)
  backpressure : bool;
      (** sender blocks when the interface queue fills (user-level path)
          instead of silently dropping (kernel device queue, §7.4) *)
}

val unet_costs : costs
(** ≈4.5 µs per operation at user level: the paper's 138 µs small-message
    UDP round trip over the 120 µs multi-cell U-Net base. *)

val kernel_costs : Host.Kernel.config -> costs

type stack

val attach : ?checksum:bool -> ?sockbuf_limit:int -> costs:costs -> Ipv4.t -> stack
(** [sockbuf_limit] bounds each socket's receive buffer (bytes); arriving
    datagrams that would overflow are dropped and counted. *)

val ip : stack -> Ipv4.t

type socket

val socket : stack -> port:int -> socket
(** Raises if the port is taken. *)

val close : socket -> unit

val sendto : socket -> dst:int -> dst_port:int -> bytes -> unit
(** Datagram send; raises on payloads beyond the IP MTU (UDP relies on the
    application to segment, §7.5). *)

val recvfrom : socket -> int * int * bytes
(** Blocking receive: (source address, source port, payload). *)

val recvfrom_timeout :
  socket -> timeout:Engine.Sim.time -> (int * int * bytes) option

val pending : socket -> int

val sockbuf_drops : stack -> int
(** Datagrams lost to receive-buffer overflow (the Figure 7 kernel losses). *)
