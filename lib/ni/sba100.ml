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

type t = {
  net : Atm.Network.t;
  host : int;
  cpu : Host.Cpu.t;
  cfg : config;
  kernel : Sync.Server.t;
  mux : Unet.Mux.t;
  rx : Rx.t;
  mutable sent : int;
  m_sent : Metrics.Counter.t;
}

(* Sending happens synchronously in the sender's fast trap: the process
   pays the whole software SAR + CRC + PIO cost itself. *)
let do_send t (ep : Unet.Endpoint.t) =
  match Unet.Ring.pop ep.tx_ring with
  | None -> ()
  | Some desc -> (
      match Unet.Endpoint.find_channel ep desc.chan with
      | None -> ()
      | Some chan ->
          let data = Unet.frame ep desc in
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
          (match Rx.fault t.rx with
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
          Array.iter
            (fun (cell : Atm.Cell.t) ->
              Host.Cpu.charge ~layer:"ni_tx" t.cpu t.cfg.tx_per_cell_ns;
              (* PIO is slower than the wire, so the 36-cell output FIFO
                 never backs up; a failed push would mean a modelling bug. *)
              if not (Atm.Network.send t.net ~host:t.host cell) then
                failwith "Sba100: output FIFO overflow")
            copied;
          desc.injected <- true;
          t.sent <- t.sent + 1;
          Metrics.Counter.inc t.m_sent)

let create net ~host ~cpu ?(config = default_config) () =
  let sim = Atm.Network.sim net in
  let labels = [ ("host", string_of_int host); ("nic", config.name) ] in
  let m_sent =
    Metrics.counter ~help:"PDUs injected onto the wire by a NI"
      "ni_pdus_sent_total" labels
  in
  let kernel = Sync.Server.create ~owner:(host, [ "ni"; config.name ]) sim in
  let mux = Unet.Mux.create ~host ~copy_layer:"sba100_rx" () in
  (* the receive trap plus software AAL5/CRC processing, serialized
     through the kernel (which is also what emulated-endpoint operations
     queue behind); every PDU pays the same fixed delivery cost *)
  let rx =
    Rx.create net ~host ~labels ~server:kernel ~mux
      ~cell_ns:config.rx_per_cell_ns ~single_ns:config.rx_fixed_ns
      ~multi_ns:config.rx_fixed_ns
  in
  let t = { net; host; cpu; cfg = config; kernel; mux; rx; sent = 0; m_sent } in
  (* the host reads each cell out of the interface FIFO word by word: one
     counted PIO copy per cell on the receive side too. Every cell takes
     this path: a train bound here expands into it (DESIGN.md §14). *)
  Atm.Network.attach_rx net ~host (fun (cell : Atm.Cell.t) ->
      Rx.on_cell rx
        { cell with payload = Buf.copy ~layer:"sba100_rx_pio" cell.payload });
  Timeseries.register ~kind:Timeseries.Utilization "ni_kernel_utilization"
    labels (fun () -> float_of_int (Sync.Server.busy_time kernel));
  Timeseries.register "ni_kernel_queue_depth" labels (fun () ->
      float_of_int (Sync.Server.queue_length kernel));
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

let pdus_sent t = t.sent
let pdus_received t = Rx.pdus_received t.rx
