(** The Fore SBA-100 (§4.1): a dumb interface with programmed-I/O cell
    FIFOs, no DMA, no AAL5 CRC hardware and no segmentation/reassembly. The
    host does everything at trap level, so U-Net on this board consists
    entirely of kernel-emulated endpoints; AAL5 SAR and the CRC run in
    software on the host CPU (CRC is 33% of the send and 40% of the receive
    AAL5 overhead). Calibrated to Table 1: 33 µs one-way for a single cell
    (66 µs RTT) and a 6.8 MB/s bandwidth ceiling at 1 KB packets. *)

type config = {
  name : string;
  trap_ns : int;  (** fast kernel trap (28/43-instruction paths) *)
  doorbell_ns : int;
  rx_poll_ns : int;
  tx_fixed_ns : int;  (** per message, in the sender's trap *)
  tx_per_cell_ns : int;  (** software SAR + CRC + PIO store, per cell *)
  rx_per_cell_ns : int;
  rx_fixed_ns : int;
  max_seg_size : int;
}

val default_config : config

type t

val create : Atm.Network.t -> host:int -> cpu:Host.Cpu.t -> ?config:config -> unit -> t
(** The host sends every PDU cell by cell from its trap, so no train
    leaves an SBA-100. A global fault spec naming the [Ni] site gives the
    NI one injector ({!Rx.fault}): a DMA stall charges the sending CPU
    extra per-PDU PIO time, and the receive engine's overruns drop
    reassembled PDUs before the mux. *)

val backend : t -> Unet.backend
(** All endpoints on this backend must be created with [~emulated:true]
    ([max_endpoints] is 0). *)

val pdus_sent : t -> int
val pdus_received : t -> int
