(** The message multiplexer/demultiplexer of Figure 1(b): the only agent on
    the data path. It owns the host's tag table (incoming VCI → endpoint +
    channel) and performs deliveries, enforcing that messages only reach the
    endpoint that registered the tag. NI backends share this logic. *)

type t

val create : ?host:int -> ?copy_layer:string -> unit -> t
(** [host] labels this mux's registry metrics ([unet_mux_deliveries_total],
    [unet_mux_unknown_tag_drops_total], [unet_mux_outcomes_total]) and tags
    its trace events. [copy_layer] labels the delivery copies this mux
    performs in [buf_copies_total] (the NI that owns the mux names its
    receive path, e.g. ["sba200_rx_dma"]). *)

val register : t -> rx_vci:int -> Endpoint.t -> chan:Channel.id -> unit
(** Raises if the VCI is already registered (tag conflict). *)

val unregister : t -> rx_vci:int -> unit
val lookup : t -> rx_vci:int -> (Endpoint.t * Channel.id) option

val frame : dest_offset:int option -> Engine.Buf.t -> Engine.Buf.t
(** A PDU for a direct-access endpoint: the data behind a 5-byte prefix
    that carries the deposit offset, if the sender gave one. {!deliver} and
    {!deliver_to} take the prefix off again when the endpoint is
    direct-access. *)

type delivery =
  | Delivered_inline
  | Delivered_buffers of (int * int) list
  | Delivered_direct  (** direct-access deposit at a sender-given offset *)
  | Dropped_rx_full
  | Dropped_no_free_buffer
  | Dropped_bad_offset  (** direct-access offset outside the segment *)

val deliver :
  t ->
  rx_vci:int ->
  ?ctx:Engine.Span.ctx ->
  Engine.Buf.t ->
  (Endpoint.t * Channel.id * delivery) option
(** Demultiplex a reassembled PDU to its endpoint: small messages go inline
    into a receive descriptor; larger ones fill buffers popped from the free
    queue (whole-message drop when the queue runs dry, §3.4); direct-access
    endpoints read the {!frame} prefix and deposit at the offset it gives,
    or deliver as above when it gives none. Fires upcalls and
    wakes blocked receivers. [None] means the tag was unknown and the PDU
    was discarded. *)

val deliver_to :
  ?copy_layer:string ->
  ?ctx:Engine.Span.ctx ->
  Endpoint.t ->
  chan:Channel.id ->
  Engine.Buf.t ->
  delivery
(** The delivery core without the tag lookup: place a message into an
    endpoint (inline / free-queue buffers / direct deposit), fire upcalls,
    wake receivers, as {!deliver} does. Used by the kernel when it
    re-delivers multiplexed traffic to an emulated endpoint (§3.5). [ctx]
    is stamped onto the receive descriptor and marked [Demuxed] when the
    push succeeds. *)

val unknown_tag_drops : t -> int

val rx_dropped : ?ctx:Engine.Span.ctx -> string -> unit
(** Account one receive-path discard: bumps
    [unet_rx_dropped_total{reason}] and marks the span [Dropped]. Every
    drop site on the receive path (mux outcomes, the kernel mux's unknown
    channel, NI overruns) must report here so no message vanishes
    silently. *)
