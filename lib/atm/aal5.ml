open Engine

let trailer_size = 8
let max_payload = 65535

let cells_for len =
  if len < 0 then invalid_arg "Aal5.cells_for: negative length";
  (len + trailer_size + Cell.payload_size - 1) / Cell.payload_size

let pdu_wire_bytes len = cells_for len * Cell.on_wire_size

(* Trailer layout (last 8 bytes of the CS-PDU):
   byte 0: CPCS-UU (we carry 0)
   byte 1: CPI (0)
   bytes 2-3: payload length, big-endian
   bytes 4-7: CRC-32 over the whole CS-PDU with the CRC field excluded.

   The CS-PDU is never materialized: it is the payload view followed by a
   fresh pad+trailer store, and every cell is a 48-byte view into that
   concatenation. *)
let segment ?ctx ~vci payload =
  let len = Buf.length payload in
  if len > max_payload then invalid_arg "Aal5.segment: payload too long";
  let ncells = cells_for len in
  let total = ncells * Cell.payload_size in
  let tail = Bytes.make (total - len) '\000' in
  let tail_len = Bytes.length tail in
  Bytes.set_uint16_be tail (tail_len - 6) len;
  let crc =
    Crc32.digest ~crc:(Crc32.digest_buf payload) tail ~pos:0 ~len:(tail_len - 4)
  in
  Bytes.set_int32_be tail (tail_len - 4) crc;
  let pdu = Buf.append payload (Buf.of_bytes tail) in
  (* one tag shared by the PDU's cells *)
  let tag =
    match ctx with None -> None | Some _ -> Some { Cell.ctx; journal = None }
  in
  List.init ncells (fun i ->
      Cell.make ?tag ~vci ~eop:(i = ncells - 1)
        (Buf.sub pdu ~pos:(i * Cell.payload_size) ~len:Cell.payload_size))

type error = Crc_mismatch | Length_mismatch | Too_long

let pp_error fmt = function
  | Crc_mismatch -> Format.pp_print_string fmt "crc-mismatch"
  | Length_mismatch -> Format.pp_print_string fmt "length-mismatch"
  | Too_long -> Format.pp_print_string fmt "too-long"

let error_reason = function
  | Crc_mismatch -> "crc_mismatch"
  | Length_mismatch -> "length_mismatch"
  | Too_long -> "too_long"

(* One counter per discard reason, cached so the hot path is a hashtable
   hit rather than a registry walk. *)
let m_discarded =
  let tbl : (string, Metrics.Counter.t) Hashtbl.t = Hashtbl.create 4 in
  fun reason ->
    let c =
      match Hashtbl.find_opt tbl reason with
      | Some c -> c
      | None ->
          let c =
            Metrics.counter
              ~help:"AAL5 CS-PDUs discarded during reassembly"
              "aal5_pdus_discarded_total"
              [ ("reason", reason) ]
          in
          Hashtbl.add tbl reason c;
          c
    in
    Metrics.Counter.inc c

module Reassembler = struct
  type t = {
    mutable cells : Buf.t list;  (* received payload views, reversed *)
    mutable got : int;  (* bytes across [cells] *)
    mutable error_count : int;
    mutable last : Cell.tag;  (* tag of the last EOP cell *)
  }

  let create () = { cells = []; got = 0; error_count = 0; last = Cell.untagged }
  let in_progress t = t.got > 0
  let errors t = t.error_count
  let last_ctx t = t.last.ctx
  let max_pdu_bytes = cells_for max_payload * Cell.payload_size

  (* Every discard path funnels through here: the per-VCI state is already
     reset by the caller, so a bad PDU never poisons the next one; the loss
     is visible in the error count, a metric, and the PDU's journal (and so
     its span). *)
  let discard t err =
    t.error_count <- t.error_count + 1;
    m_discarded (error_reason err);
    Journal.drop t.last.journal;
    Error err

  let finish t =
    let pdu = Buf.concat (List.rev t.cells) in
    t.cells <- [];
    t.got <- 0;
    let total = Buf.length pdu in
    (* total is a positive multiple of 48 by construction, so the trailer
       reads below stay in bounds even for a garbage PDU *)
    let stored_len = Buf.get_uint16_be pdu (total - 6) in
    let stored_crc = Buf.get_uint32_be pdu (total - 4) in
    let crc = Crc32.digest_buf (Buf.sub pdu ~pos:0 ~len:(total - 4)) in
    if crc <> stored_crc then discard t Crc_mismatch
    else if
      (* validate the stored length before trusting it as a [Buf.sub]
         bound: it must fit inside the PDU and agree with the cell count *)
      stored_len > total - trailer_size
      || cells_for stored_len * Cell.payload_size <> total
    then discard t Length_mismatch
    else Ok (Buf.sub pdu ~pos:0 ~len:stored_len)

  let push t (cell : Cell.t) =
    if t.got + Cell.payload_size > max_pdu_bytes then begin
      t.cells <- [];
      t.got <- 0;
      t.last <- cell.tag;
      Some (discard t Too_long)
    end
    else begin
      t.cells <- cell.payload :: t.cells;
      t.got <- t.got + Cell.payload_size;
      if cell.eop then begin
        t.last <- cell.tag;
        Some (finish t)
      end
      else None
    end
end
