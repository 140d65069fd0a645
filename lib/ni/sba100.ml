open Engine

type config = {
  name : string;
  trap_ns : int;
  doorbell_ns : int;
  rx_poll_ns : int;
  tx_fixed_ns : int;
  tx_per_cell_ns : int;
  rx_per_cell_ns : int;
  rx_fixed_ns : int;
  max_seg_size : int;
}

(* Table 1: 21 µs trap-level send+receive across the switch (traps + wire),
   7 µs AAL5 send overhead, 5 µs AAL5 receive overhead, 33 µs one-way.
   Our wire (two links + switch) is ≈9.1 µs, leaving ≈12 µs of trap cost
   split across the two ends; the AAL5 per-cell costs sit on top. The 1 KB
   bandwidth bound comes from the sender's ≈7 µs/cell software path:
   48 B / 7.06 µs ≈ 6.8 MB/s. *)
let default_config =
  {
    name = "SBA-100";
    trap_ns = 2_500;
    doorbell_ns = 500;
    rx_poll_ns = 500;
    tx_fixed_ns = 1_500;
    tx_per_cell_ns = 7_060;
    rx_per_cell_ns = 5_000;
    rx_fixed_ns = 4_400;
    max_seg_size = 256 * 1024;
  }

(* A train still being fed onto the uplink by the host's PIO loop (train
   fast path, DESIGN.md §14). The sends are unconditional — the host
   process sleeps through the whole loop either way — so on interference
   the un-accepted cells are re-armed as real send events at their
   original instants rather than re-entered from the process. *)
type tx_train = {
  tt_train : Atm.Cell.train;
  tt_cells : Atm.Cell.t array; (* post-PIO-copy snapshots, ready to send *)
  tt_arrivals : Sim.time array; (* send instant of each cell *)
}

(* fills the unused slots of [tx_trains] *)
let no_train =
  {
    tt_train =
      Atm.Cell.Train.of_cells
        [| Atm.Cell.make ~vci:0 ~eop:true (Buf.alloc Atm.Cell.payload_size) |];
    tt_cells = [||];
    tt_arrivals = [||];
  }

type t = {
  sim : Sim.t;
  net : Atm.Network.t;
  host : int;
  cpu : Host.Cpu.t;
  cfg : config;
  kernel : Sync.Server.t;
  mux : Unet.Mux.t;
  reasm : (int, Atm.Aal5.Reassembler.t) Hashtbl.t;
  mutable fault : Fault.t option;
  tx_trains : tx_train Fifo.t; (* oldest first *)
  mutable sent : int;
  mutable received : int;
  mutable errors : int;
  m_sent : Metrics.Counter.t;
  m_received : Metrics.Counter.t;
  m_errors : Metrics.Counter.t;
  m_demux : Metrics.Counter.t;
}

let deliver t ?ctx vci payload =
  match t.fault with
  | Some f when Fault.rx_overrun f ->
      (* the host fell behind the interface FIFO and the PDU was
         overwritten before it could be demultiplexed *)
      Unet.Mux.rx_dropped ?ctx "ni_overrun";
      if Trace.enabled () then
        Trace.instant Trace.Desc "ni.rx_overrun" ~tid:t.host
          ~args:[ ("vci", Trace.Int vci) ]
  | _ -> (
      Metrics.Counter.inc t.m_demux;
      if Trace.enabled () then
        Trace.instant Trace.Desc "ni.rx_demux" ~tid:t.host
          ~args:
            [
              ("vci", Trace.Int vci); ("len", Trace.Int (Buf.length payload));
            ];
      match Unet.Mux.deliver t.mux ~rx_vci:vci ?ctx payload with
      | Some _ ->
          t.received <- t.received + 1;
          Metrics.Counter.inc t.m_received
      | None -> ())

(* The software AAL5 work for one cell of receive-side VCI [vci], run as
   (or inside) a kernel job; [cell] already holds the host's counted PIO
   copy of the payload. *)
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
      Sync.Server.submit t.kernel ~stage:"rx_deliver" ~cost:t.cfg.rx_fixed_ns
        (fun () -> deliver t ?ctx vci payload)

let on_cell t (cell : Atm.Cell.t) =
  (* The receive trap plus software AAL5/CRC processing, serialized through
     the kernel (which is also what emulated-endpoint operations queue
     behind). *)
  (* the host reads the cell out of the interface FIFO word by word: one
     counted PIO copy per cell on the receive side too *)
  let cell =
    { cell with Atm.Cell.payload = Buf.copy ~layer:"sba100_rx_pio" cell.payload }
  in
  Sync.Server.submit t.kernel ~stage:"rx_cell" ~cost:t.cfg.rx_per_cell_ns
    (fun () -> rx_cell_body t ~vci:cell.vci cell)

(* The PIO copy happens inside each paced action — at the cell's
   consumption, only for cells actually consumed — so the copy counters
   match the per-cell path even when the batch splits and the cut cells
   are re-delivered (and re-copied) for real. *)
let on_train t train ~rx_vci ~deliveries =
  Atm.Cell.Train.receive t.sim t.kernel ~stage:"rx_cell"
    ~cost:t.cfg.rx_per_cell_ns ~faulted:(t.fault <> None) train ~rx_vci
    ~deliveries
    ~action:(fun ~vci cell ->
      rx_cell_body t ~vci
        {
          cell with
          Atm.Cell.payload =
            Buf.copy ~layer:"sba100_rx_pio" cell.Atm.Cell.payload;
        })
    (on_cell t)

(* The uplink's interfere hook: an unplanned per-cell send is about to
   thread through planned state. The host's PIO loop cannot be interrupted
   — every remaining send still happens at its original instant — so each
   pending train is truncated to its already-accepted prefix and the rest
   re-armed as real per-cell send events, which queue in true FIFO order
   against the interferer. A send event landing exactly at [now] has
   already fired (it was scheduled before the interferer), so the [<=]
   boundary keeps it in the accepted prefix. *)
let split_trains t =
  let now = Sim.now t.sim in
  let trains = Fifo.to_list t.tx_trains in
  Fifo.clear t.tx_trains;
  List.iter
    (fun tt ->
      let n = Array.length tt.tt_arrivals in
      if tt.tt_arrivals.(n - 1) > now then begin
        let keep = ref 0 in
        while !keep < n && tt.tt_arrivals.(!keep) <= now do
          incr keep
        done;
        Atm.Cell.Train.truncate tt.tt_train ~keep:!keep ~now;
        for i = !keep to n - 1 do
          let cell = tt.tt_cells.(i) in
          Sim.schedule_drop ~label:"ni.pio_tx" t.sim
            ~delay:(tt.tt_arrivals.(i) - now)
            (fun () ->
              if not (Atm.Network.send t.net ~host:t.host cell) then
                failwith "Sba100: output FIFO overflow")
        done
      end)
    trains

(* Feed a multi-cell PDU as one analytically planned train (DESIGN.md §14):
   the host still pays the full per-cell software cost — one coalesced
   sleep standing in for the n per-cell ones — while the uplink, switch and
   downlink carry the cells as planned state. [cells] already hold their
   counted PIO copies (the fallback loop reuses them uncopied). *)
let train_send t (cells : Atm.Cell.t array) =
  let n = Array.length cells in
  if n < 2 || (not (Trainmode.active ())) || t.fault <> None then false
  else begin
    let s = Host.Machine.scale (Host.Cpu.machine t.cpu) t.cfg.tx_per_cell_ns in
    let now = Sim.now t.sim in
    (* cell i's charge precedes its send, so send i lands at now+(i+1)*s *)
    let arrivals = Array.init n (fun i -> now + ((i + 1) * s)) in
    let train = Atm.Cell.Train.of_cells cells in
    match
      Atm.Network.commit_train_feed t.net ~host:t.host ~train ~arrivals
        ~sched_lead:s
        ~on_interfere:(fun () -> split_trains t)
    with
    | None -> false
    | Some _ ->
        Fifo.push t.tx_trains
          { tt_train = train; tt_cells = cells; tt_arrivals = arrivals };
        (* the coalesced per-cell cost: n pre-scaled sleeps in one charge
           (scaling does not distribute over addition, so scale once) *)
        Host.Cpu.charge_raw ~layer:"ni_tx" t.cpu (n * s);
        (* the loop is over; anything still in tx_trains past its last
           send can no longer be interfered with *)
        Fifo.filter_in_place
          (fun tt ->
            tt.tt_arrivals.(Array.length tt.tt_arrivals - 1) > Sim.now t.sim)
          t.tx_trains;
        true
  end

(* Sending happens synchronously in the sender's fast trap: the process
   pays the whole software SAR + CRC + PIO cost itself. *)
let do_send t (ep : Unet.Endpoint.t) =
  match Unet.Ring.pop ep.tx_ring with
  | None -> ()
  | Some desc -> (
      match Unet.Endpoint.find_channel ep desc.chan with
      | None -> ()
      | Some chan ->
          let data = Unet.gather_payload ep desc.tx_payload in
          Span.mark desc.ctx Span.Nic_tx;
          let cells =
            Atm.Aal5.segment ?ctx:desc.ctx ~vci:chan.Unet.Channel.tx_vci data
          in
          if Trace.enabled () then
            Trace.instant Trace.Desc "ni.tx" ~tid:t.host
              ~args:
                [
                  ("len", Trace.Int (Buf.length data));
                  ("cells", Trace.Int (Array.length cells));
                ];
          Host.Cpu.charge ~layer:"ni_tx" t.cpu t.cfg.tx_fixed_ns;
          (* on the SBA-100 the "DMA" is the host's own PIO loop, so a
             stall charges the sending CPU directly *)
          (match t.fault with
          | Some f ->
              let stall = Fault.dma_stall f in
              if stall > 0 then Host.Cpu.charge ~layer:"ni_tx" t.cpu stall
          | None -> ());
          (* the host stores each cell into the output FIFO word by word:
             one counted PIO copy per cell, and the snapshot keeps the
             in-flight cell valid once the sender's buffers are reused (the
             count is the same whether the copies happen here or spread
             through the loop below — the counters only dump aggregates) *)
          let copied =
            Array.map
              (fun (cell : Atm.Cell.t) ->
                {
                  cell with
                  Atm.Cell.payload =
                    Buf.copy ~layer:"sba100_tx_pio" cell.payload;
                })
              cells
          in
          if not (train_send t copied) then
            Array.iter
              (fun (cell : Atm.Cell.t) ->
                Host.Cpu.charge ~layer:"ni_tx" t.cpu t.cfg.tx_per_cell_ns;
                (* PIO is slower than the wire, so the 36-cell output FIFO
                   never backs up; a failed push would mean a modelling
                   bug. *)
                if not (Atm.Network.send t.net ~host:t.host cell) then
                  failwith "Sba100: output FIFO overflow")
              copied;
          desc.injected <- true;
          t.sent <- t.sent + 1;
          Metrics.Counter.inc t.m_sent)

let create net ~host ~cpu ?(config = default_config) () =
  let sim = Atm.Network.sim net in
  let labels = [ ("host", string_of_int host); ("nic", config.name) ] in
  let t =
    {
      sim;
      net;
      host;
      cpu;
      cfg = config;
      kernel = Sync.Server.create ~owner:(host, [ "ni"; config.name ]) sim;
      mux = Unet.Mux.create ~host ~copy_layer:"sba100_rx" ();
      reasm = Hashtbl.create 16;
      fault =
        Fault.configured_at Fault.Ni ~site:(Printf.sprintf "ni.%d" host);
      tx_trains = Fifo.create ~dummy:no_train;
      sent = 0;
      received = 0;
      errors = 0;
      m_sent =
        Metrics.counter ~help:"PDUs injected onto the wire by a NI"
          "ni_pdus_sent_total" labels;
      m_received =
        Metrics.counter ~help:"PDUs demultiplexed into an endpoint by a NI"
          "ni_pdus_received_total" labels;
      m_errors =
        Metrics.counter ~help:"AAL5 reassembly failures at a NI"
          "ni_reassembly_errors_total" labels;
      m_demux =
        Metrics.counter ~help:"reassembled PDUs presented to the mux by a NI"
          "ni_rx_demux_total" labels;
    }
  in
  Atm.Network.attach_rx net ~host (fun cell -> on_cell t cell);
  Atm.Network.attach_rx_train net ~host (fun train ~rx_vci ~deliveries ->
      on_train t train ~rx_vci ~deliveries);
  Timeseries.register ~kind:Timeseries.Utilization "ni_kernel_utilization"
    labels (fun () -> float_of_int (Sync.Server.busy_time t.kernel));
  Timeseries.register "ni_kernel_queue_depth" labels (fun () ->
      float_of_int (Sync.Server.queue_length t.kernel));
  t

let backend t =
  {
    Unet.nic_name = t.cfg.name;
    notify_tx = (fun ep -> do_send t ep);
    mux = t.mux;
    max_endpoints = 0; (* emulated endpoints only *)
    max_seg_size = t.cfg.max_seg_size;
    doorbell_ns = t.cfg.doorbell_ns;
    rx_poll_ns = t.cfg.rx_poll_ns;
    kernel_op_ns = t.cfg.trap_ns;
    kernel_path = Some t.kernel;
  }

let set_fault t f = t.fault <- Some f
let config t = t.cfg
let pdus_sent t = t.sent
let pdus_received t = t.received
let reassembly_errors t = t.errors
