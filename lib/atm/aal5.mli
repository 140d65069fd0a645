(** AAL5 segmentation and reassembly. A CS-PDU is the payload, zero padding,
    and an 8-byte trailer (UU, CPI, 16-bit length, 32-bit CRC) rounded up to
    a whole number of 48-byte cells; the last cell carries the PTI
    end-of-packet mark. *)

val trailer_size : int (* 8 *)

val max_payload : int
(** Largest payload an AAL5 PDU can carry (65535, the 16-bit length field). *)

val cells_for : int -> int
(** Number of cells needed to carry a payload of the given length
    (payload + trailer, rounded up to cells). *)

val pdu_wire_bytes : int -> int
(** Bytes on the wire (53 per cell) for a payload of the given length — the
    exact sawtooth of the paper's Figure 4 "AAL-5 limit" curve. *)

val segment : ?ctx:Engine.Span.ctx -> vci:int -> Engine.Buf.t -> Cell.t array
(** Split a payload into cells with padding, trailer and CRC, in wire
    order. The CS-PDU is the payload view concatenated with a fresh
    pad+trailer store; every cell payload is a zero-copy view into it, a
    single span unless the cell straddles two stores. Every cell inherits
    the CS-PDU's span context [ctx]. *)

type error =
  | Crc_mismatch
  | Length_mismatch
  | Too_long  (** reassembly exceeded [max_payload] + trailer *)

val pp_error : Format.formatter -> error -> unit

(** Per-VCI reassembler: feed cells in order; a completed PDU (or an error,
    e.g. after cell loss) is reported when the EOP cell arrives. Cell views
    are fused as they arrive ({!Engine.Buf.acc}), so a PDU whose cells are
    contiguous on a few stores reassembles into that many spans. *)
module Reassembler : sig
  type t

  val create : unit -> t

  val push : t -> Cell.t -> (Engine.Buf.t, error) result option
  (** [None] while mid-PDU; [Some (Ok payload)] on success; [Some (Error _)]
      when the completed PDU fails its checks (it is then discarded, exactly
      as cell loss discards a whole segment in the paper's §7.8). Per-VCI
      state is reset before the error is reported, so a corrupted PDU never
      poisons the next one; every discard increments
      [aal5_pdus_discarded_total{reason}] and records a drop in the PDU's
      hop journal, which its span shows as [Dropped]. *)

  val errors : t -> int
  (** Count of PDUs discarded due to errors so far. *)

  val last_ctx : t -> Engine.Span.ctx option
  (** Span context carried by the most recent EOP cell — the context of
      the PDU that [push] just completed (valid after [push] returned
      [Some _], until the next EOP). *)
end
