(** The receive half every NI shares (§4): a serial processor — the host
    kernel on the SBA-100, the i960 on the SBA-200 — takes each arriving
    cell, reassembles the AAL5 PDU and demultiplexes it into an endpoint.
    The engine owns the per-VCI reassemblers, the [rx_cell] and
    [rx_deliver] jobs, the NI's fault injector, the received / error /
    demux counters and the paced receive of a whole train. *)

type t

val create :
  Atm.Network.t ->
  host:int ->
  labels:Engine.Metrics.labels ->
  server:Engine.Sync.Server.t ->
  mux:Unet.Mux.t ->
  cell_ns:int ->
  single_ns:int ->
  multi_ns:int ->
  t
(** Each arriving cell occupies [server] for [cell_ns] (an [rx_cell]
    job); a reassembled PDU then occupies it for [single_ns] when it fits
    one cell and [multi_ns] otherwise (an [rx_deliver] job) before [mux]
    gets it. Registers [ni_pdus_received_total],
    [ni_reassembly_errors_total] and [ni_rx_demux_total] under [labels],
    and creates the NI's one fault injector when a global spec names the
    [Ni] site. Attaches nothing: the NI hands cells to {!on_cell} and
    trains to {!on_train}. *)

val on_cell : t -> Atm.Cell.t -> unit
(** One cell off the wire, carrying the receive-side VCI. *)

val on_train :
  t ->
  Atm.Cell.train ->
  rx_vci:int ->
  deliveries:Engine.Sim.time array ->
  unit
(** A whole train, called at [deliveries.(0)] (an
    {!Atm.Network.attach_rx_train} handler). Without a fault injector
    the run of [rx_cell] jobs is one paced batch whose indexed action
    pushes each cell at its completion, and an upstream truncation trims
    the batch. Otherwise — or when the server refuses the batch — the
    cells go to {!on_cell} one by one at their delivery instants, one
    chained ["ni.rx_train"] event per cell. *)

val fault : t -> Engine.Fault.t option
(** The NI's fault injector: the transmit side draws [dma_stall] from it,
    this engine [rx_overrun] (a reassembled PDU dropped before the mux). *)

val pdus_received : t -> int

val reassembly_errors : t -> int
(** PDUs discarded for bad CRC / length — cell loss shows up here. *)
