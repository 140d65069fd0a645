(** The U-Net user API on one host: endpoint creation with resource limits,
    OS-mediated channel registration, and the send/receive/poll/upcall
    operations of §3.1 — everything a process does to talk to the network
    without entering the kernel.

    All operations that model processing time must be called from inside an
    {!Engine.Proc.spawn}-ed process. *)

(* Building blocks, re-exported for NI backends and protocol layers. *)
module Desc = Desc
module Ring = Ring
module Segment = Segment
module Channel = Channel
module Endpoint = Endpoint
module Mux = Mux

(** The NI backend a U-Net instance drives: how descriptors are picked up,
    the host's demux table, and the backend's resource limits. Implemented
    by the models in [lib/ni]. *)
type backend = {
  nic_name : string;
  notify_tx : Endpoint.t -> unit;
      (** called after a descriptor lands in an endpoint's send queue *)
  mux : Mux.t;
  max_endpoints : int;  (** NI memory limits the endpoint count (§4.2.4) *)
  max_seg_size : int;  (** base-level bounds segment sizes (§3.3) *)
  doorbell_ns : int;  (** host-side cost of posting a send descriptor *)
  rx_poll_ns : int;  (** host-side cost of a receive-queue check *)
  kernel_op_ns : int;
      (** extra cost per operation on a kernel-emulated endpoint: a fast
          trap on the SBA-100, a full system call on the SBA-200 *)
  kernel_path : Engine.Sync.Server.t option;
      (** serializes kernel-emulated endpoint operations (§3.5) *)
}

type t

type error =
  | Too_many_endpoints
  | Pinned_exhausted
  | Segment_too_large
  | Queue_full  (** send queue full: back-pressure *)
  | Free_queue_full
  | Bad_channel  (** channel not registered on this endpoint: protection *)
  | Bad_buffer of string  (** descriptor points outside the segment *)
  | Inline_too_large
  | Not_direct_access

val pp_error : Format.formatter -> error -> unit

val create :
  cpu:Host.Cpu.t ->
  net:Atm.Network.t ->
  host:int ->
  ?pinned_capacity:int ->
  backend ->
  t

val sim : t -> Engine.Sim.t
val host : t -> int
val cpu : t -> Host.Cpu.t
val net : t -> Atm.Network.t
val pinned : t -> Host.Pinned.t

val create_endpoint :
  t ->
  ?emulated:bool ->
  ?direct_access:bool ->
  ?tx_slots:int ->
  ?rx_slots:int ->
  ?free_slots:int ->
  seg_size:int ->
  unit ->
  (Endpoint.t, error) result
(** Kernel-emulated endpoints don't count against the NI endpoint limit:
    the kernel multiplexes all of them onto one real endpoint it owns
    (created lazily on the first emulated connection, §3.5). They pay a
    system call per operation plus the kernel's staging copies. Direct-
    access endpoints accept sender-addressed deposits anywhere in their
    segment. *)

val destroy_endpoint : t -> Endpoint.t -> unit
(** Releases pinned memory and unregisters the endpoint's tags. *)

val endpoint_count : t -> int

val connect_pair :
  t * Endpoint.t -> t * Endpoint.t -> Channel.id * Channel.id
(** The operating-system signalling service (§3.2): route discovery, switch
    path setup, tag registration at both muxes. Returns each side's channel
    identifier for the new full-duplex channel. *)

val disconnect : t -> Endpoint.t -> Channel.id -> unit

val kernel_endpoint : t -> Endpoint.t option
(** The kernel's single real endpoint carrying all emulated-endpoint
    traffic, if any emulated endpoint has been connected (§3.5). *)

val send : t -> Endpoint.t -> Desc.tx -> (unit, error) result
(** Validate the descriptor (protection checks), charge the doorbell cost,
    and push it onto the send queue. [Error Queue_full] is the back-pressure
    signal; the caller retries after draining. *)

val poll : t -> Endpoint.t -> Desc.rx option
(** Non-blocking receive-queue check (charges the poll cost). *)

val recv : t -> Endpoint.t -> Desc.rx
(** Block until a message arrives (the UNIX-select-style model of §3.1). *)

val recv_timeout : t -> Endpoint.t -> timeout:Engine.Sim.time -> Desc.rx option

val provide_free_buffer :
  t -> Endpoint.t -> off:int -> len:int -> (unit, error) result
(** Hand a receive buffer (a range of the communication segment) to the NI
    via the free queue. *)

(** {2 Buffer duties}

    The buffer discipline a process keeps inside its segment (§3): post
    receive buffers from a fixed-block allocator, copy a received message
    out before handing its buffers back, and stage each send into blocks
    it takes back once the NI has injected the message. Each helper raises
    on a U-Net error, naming itself. *)

val open_endpoint :
  t ->
  ?emulated:bool ->
  ?direct_access:bool ->
  ?tx_slots:int ->
  ?rx_slots:int ->
  free_slots:int ->
  seg_size:int ->
  block:int ->
  post:int ->
  unit ->
  Endpoint.t * Segment.Allocator.t
(** {!create_endpoint}, a [block]-byte allocator over its segment, and
    [post] of its blocks on the free queue; the other blocks are the
    process's send buffers. Raises [Invalid_argument] when the endpoint
    cannot be created or its segment holds fewer than [post] blocks. *)

val gather_payload : Endpoint.t -> Desc.payload -> Engine.Buf.t
(** A descriptor's payload as a zero-copy view over the endpoint's
    segment; inline bytes as they are. *)

val frame : Endpoint.t -> Desc.tx -> Engine.Buf.t
(** The PDU a NI (or the kernel, for an emulated endpoint) sends for a
    descriptor: its {!gather_payload}, behind {!Mux.frame}'s prefix on a
    direct-access endpoint. *)

val take :
  t -> Endpoint.t -> Segment.Allocator.t -> layer:string -> Desc.rx ->
  Engine.Buf.t
(** A received message as bytes it owns. Its buffers are copied out,
    counted under [buf_copies_total{layer}], then go back on the free
    queue at the allocator's block size, where later arrivals may refill
    them. An inline payload is already a snapshot and is returned as is. *)

val release : t -> Endpoint.t -> Segment.Allocator.t -> Desc.rx -> unit
(** Hand a received message's buffers back to the free queue, at the
    allocator's block size, without copying them out. *)

type stager
(** Sends staged into an allocator's blocks, each block held until the NI
    has injected the message that uses it. *)

val stager :
  t ->
  Endpoint.t ->
  Segment.Allocator.t ->
  layer:string ->
  wait:Engine.Sim.time ->
  on_full:[ `Drop | `Retry ] ->
  stager
(** [layer] names the staging copy; [wait] is the re-poll interval while
    every block is in flight. On a full send queue the message is dropped
    ([`Drop]) or re-sent every [wait] until it fits ([`Retry]). *)

val stage :
  stager -> ?ctx:Engine.Span.ctx -> chan:Channel.id -> Engine.Buf.t -> unit
(** Copy the message into as many free blocks as it needs (at least one),
    first taking back the blocks of injected sends, and post it on [chan].
    Blocks the process while no block is free. *)

val set_upcall : t -> Endpoint.t -> Endpoint.upcall_cond -> (unit -> unit) -> unit

val disable_upcalls : t -> Endpoint.t -> unit
(** Cheap critical-section entry: upcalls must be maskable at user level. *)

val enable_upcalls : t -> Endpoint.t -> unit
(** Re-enable upcalls; fires immediately if the pending condition holds. *)
