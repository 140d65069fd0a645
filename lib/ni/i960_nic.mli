(** The shared engine for i960-style network interfaces: an on-board
    processor modelled as a serial FIFO server that alternates between
    draining endpoint send queues (segmenting PDUs into cells, pacing them
    into the output FIFO with flow control) and handling arriving cells
    (reassembly, demultiplexing, delivery into receive queues).

    The SBA-200 U-Net firmware ({!sba200_unet}) and Fore's original
    firmware ({!sba200_fore}) are both instances with different cost
    parameters. *)

type config = {
  name : string;
  copy_layer : string;
      (** label prefix for this NI's counted copies in [buf_copies_total]
          (["<copy_layer>_tx_dma"] and ["<copy_layer>_rx"]) *)
  (* host-side costs (reference-machine ns) *)
  doorbell_ns : int;  (** compose + post a send descriptor *)
  rx_poll_ns : int;  (** check/pop the receive queue *)
  kernel_op_ns : int;  (** per-op surcharge for emulated endpoints *)
  (* i960-side costs (absolute ns: the i960 clock does not scale with the
     host CPU) *)
  tx_single_ns : int;  (** single-cell fast-path send, whole message *)
  tx_fixed_ns : int;  (** multi-cell send: per-message descriptor work *)
  tx_per_cell_ns : int;  (** multi-cell send: DMA + FIFO per cell *)
  rx_cell_ns : int;  (** per arriving cell *)
  rx_single_ns : int;  (** single-cell fast-path delivery *)
  rx_multi_fixed_ns : int;  (** multi-cell delivery: buffers + descriptor *)
  single_cell_optimization : bool;
      (** §4.2.2: single-cell messages bypass buffer allocation; off in
          Fore's firmware *)
  (* resource limits *)
  max_endpoints : int;
  max_seg_size : int;
}

type t

val sba200_unet : config
(** The SBA-200 running the custom U-Net firmware of §4.2.2: the i960
    maintains per-endpoint protection state, polls i960-resident send/free
    queues, DMAs message data in 32-byte bursts, computes the AAL5 CRC in
    hardware, and special-cases single-cell messages on both paths. The
    calibration targets the paper's §4.2.3 numbers: 65 µs single-cell
    round trip, 120 µs + ~6 µs/cell for multi-cell messages, fiber
    saturation from ~800-byte packets. *)

val sba200_fore : config
(** Fore Systems' original SBA-200 firmware (§4.2.1), the baseline the U-Net
    firmware replaced: the kernel-firmware interface is patterned after BSD
    mbufs, and the i960 chases those linked descriptor chains across the I/O
    bus with DMA — high per-message latency and no single-cell fast path.
    Calibrated to the paper's measurements: ≈160 µs round trip and
    ≈13 Mbytes/s with 4 KB packets. *)

val create : Atm.Network.t -> host:int -> config -> t
(** A global fault spec naming the [Ni] site gives the NI one injector
    ({!Rx.fault}): a DMA stall adds occupancy to the i960 for the stalled
    descriptor's DMA burst, and the receive engine's overruns drop
    reassembled PDUs before the mux. *)

val backend : t -> Unet.backend
(** The {!Unet.backend} this NI exposes; pass it to [Unet.create]. *)

(* Statistics *)

val server : t -> Engine.Sync.Server.t
(** The i960 itself, for utilization measurements. *)

val pdus_sent : t -> int
val pdus_received : t -> int
val reassembly_errors : t -> int
(** PDUs discarded for bad CRC / length — cell loss shows up here. *)
