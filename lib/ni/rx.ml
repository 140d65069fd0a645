open Engine

type t = {
  sim : Sim.t;
  host : int;
  server : Sync.Server.t;
  mux : Unet.Mux.t;
  fault : Fault.t option;
  cell_ns : int;
  single_ns : int;
  multi_ns : int;
  reasm : (int, Atm.Aal5.Reassembler.t) Hashtbl.t;
  mutable received : int;
  mutable errors : int;
  m_received : Metrics.Counter.t;
  m_errors : Metrics.Counter.t;
  m_demux : Metrics.Counter.t;
  (* The server runs jobs in submission order, so an rx_cell job takes the
     oldest cell of [cells]: one thunk made here, not a closure per cell.
     A cell is pushed just after its job is submitted (a job never runs
     inside [submit]), so a job a batch split submits from inside that
     call is queued first. *)
  cells : Atm.Cell.t Ringbuf.t;
  cell_job : unit -> unit;
}

let demux t ?ctx vci payload =
  Metrics.Counter.inc t.m_demux;
  if Trace.enabled () then
    Trace.instant Trace.Desc "ni.rx_demux" ~tid:t.host
      ~args:
        [ ("vci", Trace.Int vci); ("len", Trace.Int (Buf.length payload)) ];
  if Option.is_some (Unet.Mux.deliver t.mux ~rx_vci:vci ?ctx payload) then begin
    t.received <- t.received + 1;
    Metrics.Counter.inc t.m_received
  end

let deliver t ?ctx vci payload =
  match t.fault with
  | Some f when Fault.rx_overrun f ->
      (* the host (or the on-board processor) fell behind and the PDU was
         overwritten before it could be demultiplexed: it never reaches the
         mux, and recovery is the sender's problem *)
      Unet.Mux.rx_dropped ?ctx "ni_overrun";
      if Trace.enabled () then
        Trace.instant Trace.Desc "ni.rx_overrun" ~tid:t.host
          ~args:[ ("vci", Trace.Int vci) ]
  | _ -> demux t ?ctx vci payload

(* The body of a per-cell rx job: feed the reassembler of [vci] (the
   receive-side VCI) and, at the EOP, hand the PDU to the delivery job.
   Shared by the per-cell path (inside an rx_cell job) and the train path
   (as a deferred paced action, on the train's sender-labelled cells). *)
let rx_cell_body t ~vci (cell : Atm.Cell.t) =
  let r =
    match Hashtbl.find t.reasm vci with
    | r -> r
    | exception Not_found ->
        let r = Atm.Aal5.Reassembler.create () in
        Hashtbl.add t.reasm vci r;
        r
  in
  match Atm.Aal5.Reassembler.push r cell with
  | None -> ()
  | Some (Error _) ->
      t.errors <- t.errors + 1;
      Metrics.Counter.inc t.m_errors
  | Some (Ok payload) ->
      let ctx = Atm.Aal5.Reassembler.last_ctx r in
      let cost =
        if Buf.length payload <= Atm.Cell.payload_size - Atm.Aal5.trailer_size
        then t.single_ns
        else t.multi_ns
      in
      Sync.Server.submit t.server ~stage:"rx_deliver" ~cost (fun () ->
          deliver t ?ctx vci payload)

let cell_job t =
  let cell = Ringbuf.pop t.cells in
  rx_cell_body t ~vci:cell.vci cell

let create net ~host ~labels ~server ~mux ~cell_ns ~single_ns ~multi_ns =
  let rec t =
    {
      sim = Atm.Network.sim net;
      host;
      server;
      mux;
      fault = Fault.configured_at Fault.Ni ~site:(Printf.sprintf "ni.%d" host);
      cell_ns;
      single_ns;
      multi_ns;
      reasm = Hashtbl.create 16;
      received = 0;
      errors = 0;
      m_received =
        Metrics.counter ~help:"PDUs demultiplexed into an endpoint by a NI"
          "ni_pdus_received_total" labels;
      m_errors =
        Metrics.counter ~help:"AAL5 reassembly failures at a NI"
          "ni_reassembly_errors_total" labels;
      m_demux =
        Metrics.counter ~help:"reassembled PDUs presented to the mux by a NI"
          "ni_rx_demux_total" labels;
      cells = Ringbuf.create ~dummy:Atm.Cell.dummy;
      cell_job = (fun () -> cell_job t);
    }
  in
  t

let on_cell t (cell : Atm.Cell.t) =
  Sync.Server.submit t.server ~stage:"rx_cell" ~cost:t.cell_ns t.cell_job;
  Ringbuf.push t.cells cell

(* A whole train arriving at the NI (DESIGN.md §14): the run of per-cell
   rx jobs is one paced batch — cell i's handling starts once it has
   arrived and the previous one is done — with the reassembly pushes
   deferred to the batch completion (nothing observes the reassembler in
   between), and an upstream truncation trims the batch. The EOP push
   submits the delivery job for real, exactly as the per-cell path. A
   faulted NI or a busy server takes the cells one by one instead. *)
let on_train t train ~rx_vci ~deliveries =
  let paced =
    if t.fault = None then
      Sync.Server.submit_paced t.server ~stage:"rx_cell" ~cost:t.cell_ns
        ~n:(Atm.Cell.Train.length train) ~arrivals:deliveries
        ~action:(fun i ->
          rx_cell_body t ~vci:rx_vci (Atm.Cell.Train.cell train i))
    else None
  in
  match paced with
  | Some p ->
      Atm.Cell.Train.on_truncate train (fun ~keep ~now:_ ->
          Sync.Server.truncate_paced t.server p ~keep)
  | None ->
      Atm.Cell.Train.expand t.sim ~label:"ni.rx_train" train ~rx_vci
        ~deliveries (on_cell t)

let fault t = t.fault
let pdus_received t = t.received
let reassembly_errors t = t.errors
