type tag = {
  ctx : Engine.Span.ctx option;
  mutable journal : Engine.Journal.t option;
}

type t = { vci : int; eop : bool; payload : Engine.Buf.t; tag : tag }

let header_size = 5
let payload_size = 48
let on_wire_size = header_size + payload_size
let untagged = { ctx = None; journal = None }

let make ?(tag = untagged) ~vci ~eop payload =
  if Engine.Buf.length payload <> payload_size then
    invalid_arg
      (Printf.sprintf "Cell.make: payload must be %d bytes, got %d"
         payload_size
         (Engine.Buf.length payload));
  if vci < 0 then invalid_arg "Cell.make: negative VCI";
  { vci; eop; payload; tag }

let with_vci t vci = { t with vci }

(* LINKTYPE_SUNATM record: 4-byte pseudo-header (flags, VPI, VCI
   big-endian) followed by the 48-byte payload. Bytes are materialized
   with the uncounted span iterator — captures must not perturb the data
   path's copy accounting. *)
let sunatm_bytes t =
  let b = Bytes.create (4 + Engine.Buf.length t.payload) in
  Bytes.set_uint8 b 0 0;
  (* flags *)
  Bytes.set_uint8 b 1 0;
  (* VPI *)
  Bytes.set_uint16_be b 2 (t.vci land 0xffff);
  let pos = ref 4 in
  Engine.Buf.iter_spans t.payload (fun src ~pos:sp ~len ->
      Bytes.blit src sp b !pos len;
      pos := !pos + len);
  Bytes.unsafe_to_string b

let pp fmt t =
  Format.fprintf fmt "cell(vci=%d%s)" t.vci (if t.eop then ", eop" else "")

module Train = struct
  (* The cells of one CS-PDU travelling as a unit on the train fast path
     (DESIGN.md §14). [live] is the prefix still riding analytically; a
     split truncates it and every hop that registered planned state for the
     train removes its now-invalid future entries via the listeners. *)
  type train = {
    cells : t array;
    vci : int;
    mutable live : int;
    mutable listeners : (keep:int -> now:Engine.Sim.time -> unit) list;
  }

  let of_cells cells =
    let n = Array.length cells in
    if n = 0 then invalid_arg "Cell.Train.of_cells: empty";
    { cells; vci = cells.(0).vci; live = n; listeners = [] }

  let length t = t.live
  let vci t = t.vci

  let cell t i =
    if i < 0 || i >= t.live then invalid_arg "Cell.Train.cell: out of range";
    t.cells.(i)

  let on_truncate t f = t.listeners <- f :: t.listeners

  let truncate t ~keep ~now =
    if keep < t.live then begin
      t.live <- keep;
      List.iter (fun f -> f ~keep ~now) t.listeners
    end

  let expand sim ~label t ~rx_vci ~deliveries f =
    let rec from i =
      if i < t.live then begin
        f (with_vci t.cells.(i) rx_vci);
        if i + 1 < t.live then
          Engine.Sim.schedule_drop ~label sim
            ~delay:(deliveries.(i + 1) - Engine.Sim.now sim)
            (fun () -> from (i + 1))
      end
    in
    from 0

  let receive sim server ~stage ~cost ~faulted t ~rx_vci ~deliveries ~action
      on_cell =
    let n = t.live in
    let paced =
      if Engine.Trainmode.active () && not faulted then
        Engine.Sync.Server.submit_paced server ~stage ~cost
          ~arrivals:(Array.sub deliveries 0 n)
          ~actions:
            (Array.init n (fun i ->
                 let cell = with_vci t.cells.(i) rx_vci in
                 fun () -> action cell))
      else None
    in
    match paced with
    | Some p ->
        on_truncate t (fun ~keep ~now:_ ->
            Engine.Sync.Server.truncate_paced server p ~keep)
    | None -> expand sim ~label:"ni.rx_train" t ~rx_vci ~deliveries on_cell
end

type train = Train.train
