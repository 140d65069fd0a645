open Engine

type config = {
  name : string;
  copy_layer : string;
  doorbell_ns : int;
  rx_poll_ns : int;
  kernel_op_ns : int;
  tx_single_ns : int;
  tx_fixed_ns : int;
  tx_per_cell_ns : int;
  rx_cell_ns : int;
  rx_single_ns : int;
  rx_multi_fixed_ns : int;
  single_cell_optimization : bool;
  max_endpoints : int;
  max_seg_size : int;
}

type t = {
  sim : Sim.t;
  net : Atm.Network.t;
  host : int;
  cfg : config;
  server : Sync.Server.t; (* the i960 *)
  kernel : Sync.Server.t; (* kernel path for emulated endpoints *)
  mux : Unet.Mux.t;
  txq : Unet.Endpoint.t Queue.t; (* one entry per posted descriptor *)
  mutable tx_active : bool;
  mutable fault : Fault.t option;
  reasm : (int, Atm.Aal5.Reassembler.t) Hashtbl.t;
  mutable sent : int;
  mutable received : int;
  mutable errors : int;
  m_sent : Metrics.Counter.t;
  m_received : Metrics.Counter.t;
  m_errors : Metrics.Counter.t;
  m_demux : Metrics.Counter.t;
  m_dma_bytes : Metrics.Counter.t;
}

(* Direct-access framing: on direct-access endpoints every PDU carries a
   5-byte prefix [flag; offset_be32]; flag 1 means "deposit at offset". *)
let direct_prefix_size = 5

let add_direct_prefix dest_offset data =
  let prefix = Bytes.create direct_prefix_size in
  (match dest_offset with
  | Some off ->
      Bytes.set_uint8 prefix 0 1;
      Bytes.set_int32_be prefix 1 (Int32.of_int off)
  | None ->
      Bytes.set_uint8 prefix 0 0;
      Bytes.set_int32_be prefix 1 0l);
  Buf.append (Buf.of_bytes prefix) data

let parse_direct_prefix payload =
  if Buf.length payload < direct_prefix_size then (None, payload)
  else
    let flag = Buf.get_uint8 payload 0 in
    let off = Int32.to_int (Buf.get_uint32_be payload 1) in
    let data =
      Buf.sub payload ~pos:direct_prefix_size
        ~len:(Buf.length payload - direct_prefix_size)
    in
    ((if flag = 1 then Some off else None), data)

(* A descriptor's payload as a zero-copy view over the communication
   segment; the DMA happens in one burst in [process_desc]. *)
let gather (ep : Unet.Endpoint.t) (desc : Unet.Desc.tx) =
  let data =
    match desc.tx_payload with
    | Unet.Desc.Inline b -> b
    | Unet.Desc.Buffers ranges ->
        Buf.concat
          (List.map
             (fun (off, len) -> Unet.Segment.view ep.segment ~off ~len)
             ranges)
  in
  if ep.direct_access then add_direct_prefix desc.dest_offset data else data

let rec pump_next t =
  match Queue.take_opt t.txq with
  | None -> t.tx_active <- false
  | Some ep -> (
      match Unet.Ring.pop ep.tx_ring with
      | None -> pump_next t
      | Some desc -> process_desc t ep desc)

and process_desc t (ep : Unet.Endpoint.t) (desc : Unet.Desc.tx) =
  match Unet.Endpoint.find_channel ep desc.chan with
  | None ->
      (* channel torn down after the descriptor was posted: discard *)
      pump_next t
  | Some chan -> (
      (* one DMA burst moves the whole PDU out of the segment into i960
         memory: a single counted copy however many cells follow, and the
         snapshot keeps in-flight cells valid after the sender reuses its
         buffers (desc.injected) *)
      Span.mark desc.ctx Span.Nic_tx;
      let data =
        Buf.copy ~layer:(t.cfg.copy_layer ^ "_tx_dma") (gather ep desc)
      in
      Metrics.Counter.add t.m_dma_bytes (Buf.length data);
      let cells =
        Atm.Aal5.segment ?ctx:desc.ctx ~vci:chan.Unet.Channel.tx_vci data
      in
      if Trace.enabled () then
        Trace.instant Trace.Desc "ni.tx" ~tid:t.host
          ~args:
            [
              ("len", Trace.Int (Buf.length data));
              ("cells", Trace.Int (List.length cells));
            ];
      (* a stalled DMA burst shows up as extra occupancy of the i960,
         delaying this descriptor and everything serialized behind it *)
      let stall =
        match t.fault with Some f -> Fault.dma_stall f | None -> 0
      in
      if stall > 0 && Trace.enabled () then
        Trace.instant Trace.Desc "ni.dma_stall" ~tid:t.host
          ~args:[ ("ns", Trace.Int stall) ];
      match cells with
      | [ cell ] when t.cfg.single_cell_optimization ->
          Sync.Server.submit t.server ~stage:"tx_single"
            ~cost:(t.cfg.tx_single_ns + stall) (fun () ->
              inject t desc cell [])
      | _ ->
          if not (try_train t desc cells) then begin
            Sync.Server.submit t.server ~stage:"tx_dma"
              ~cost:(t.cfg.tx_fixed_ns + stall) (fun () ->
                send_cells t desc cells)
          end)

(* Send a multi-cell PDU as one analytically planned train (DESIGN.md §14):
   the whole uplink / switch / downlink journey is computed up front and the
   i960 runs a chain batch standing in for the setup + per-cell unit jobs.
   Returns false — caller stays on the per-cell path — when any observer or
   site condition forbids it or any element refuses the plan. *)
and try_train t desc cells =
  if
    (not (Trainmode.active ()))
    || t.fault <> None
    || not (Sync.Server.idle t.server)
  then false
  else
    let arr = Array.of_list cells in
    if Array.length arr < 2 then false
    else
      let train = Atm.Cell.Train.of_cells arr in
      let now = Sim.now t.sim in
      let first_end = now + t.cfg.tx_fixed_ns in
      match
        Atm.Network.commit_train t.net ~host:t.host ~train
          ~first_attempt:(first_end + t.cfg.tx_per_cell_ns)
          ~gap:t.cfg.tx_per_cell_ns
          ~on_interfere:(fun () -> Sync.Server.interfere t.server)
      with
      | None -> false
      | Some accepts ->
          let n = Array.length accepts in
          (* instant the per-cell path creates the event that performs the
             final acceptance: the last unit job's completion event is made
             when the job starts (previous accept), unless the last accept
             needed link retries — then it is the retry one cell slot
             before *)
          let done_sched =
            if accepts.(n - 1) - accepts.(n - 2) = t.cfg.tx_per_cell_ns then
              accepts.(n - 2)
            else
              accepts.(n - 1)
              - Atm.Link.cell_time (Atm.Network.uplink t.net ~host:t.host)
          in
          Sync.Server.begin_chain t.server ~stages:("tx_dma", "tx_cell")
            ~done_sched ~first_end ~unit_cost:t.cfg.tx_per_cell_ns ~accepts
            ~on_done:(fun () -> chain_done t desc)
            ~on_split:(fun ~accepted ~phase ->
              chain_split t desc arr ~train ~accepted ~phase)
            ();
          true

(* The chain's last cell was accepted: identical to the last per-cell
   inject's success continuation, with the interfere hook retired before
   the pump possibly commits the next train. *)
and chain_done t desc =
  Atm.Link.clear_interfere (Atm.Network.uplink t.net ~host:t.host);
  pdu_injected t desc

(* A plain job interfered with the chain: the train keeps its [accepted]
   prefix (planned state past now was just discarded by the truncation
   listeners) and the remaining cells re-enter the per-cell path from
   exactly where the batch stood. *)
and chain_split t desc arr ~train ~accepted ~phase =
  let uplink = Atm.Network.uplink t.net ~host:t.host in
  Atm.Link.clear_interfere uplink;
  Atm.Cell.Train.truncate train ~keep:accepted ~now:(Sim.now t.sim);
  let rest = ref [] in
  for i = Array.length arr - 1 downto accepted do
    rest := arr.(i) :: !rest
  done;
  let rest = !rest in
  match phase with
  | Sync.Server.Chain_first f_end ->
      (* the fixed-cost setup job is in flight; at its end the per-cell
         path starts submitting unit jobs *)
      Sync.Server.resume_inflight t.server ~until:f_end ~k:(fun () ->
          send_cells t desc rest)
  | Sync.Server.Chain_unit u_end ->
      (* the pending cell's unit job is in flight; its completion is the
         cell's first send attempt *)
      Sync.Server.resume_inflight t.server ~until:u_end ~k:(fun () ->
          inject t desc (List.hd rest) (List.tl rest))
  | Sync.Server.Chain_gap first_attempt ->
      (* between refused attempts: the per-cell path here is a bare retry
         event (the server sits idle), re-attempting every cell slot since
         [first_attempt]; re-arm the first attempt not in the past *)
      let ct = Atm.Link.cell_time uplink in
      let now = Sim.now t.sim in
      let at = ref first_attempt in
      while !at < now do
        at := !at + ct
      done;
      if !at = now then inject t desc (List.hd rest) (List.tl rest)
      else
        ignore
          (Sim.schedule ~label:"ni.retry" t.sim ~delay:(!at - now) (fun () ->
               inject t desc (List.hd rest) (List.tl rest)))

and send_cells t desc = function
  | [] -> ()
  | cell :: rest ->
      Sync.Server.submit t.server ~stage:"tx_cell" ~cost:t.cfg.tx_per_cell_ns
        (fun () -> inject t desc cell rest)

and inject t desc cell rest =
  if Atm.Network.send t.net ~host:t.host cell then
    if rest = [] then pdu_injected t desc else send_cells t desc rest
  else
    (* NI output FIFO full: stall one cell time and retry (the i960 polls
       the FIFO level; cells are never dropped on the way out). *)
    let retry_delay =
      Atm.Link.cell_time (Atm.Network.uplink t.net ~host:t.host)
    in
    ignore
      (Sim.schedule ~label:"ni.retry" t.sim ~delay:retry_delay (fun () ->
           inject t desc cell rest))

and pdu_injected t (desc : Unet.Desc.tx) =
  desc.Unet.Desc.injected <- true;
  t.sent <- t.sent + 1;
  Metrics.Counter.inc t.m_sent;
  pump_next t

let notify_tx t ep =
  Queue.add ep t.txq;
  if not t.tx_active then begin
    t.tx_active <- true;
    pump_next t
  end

let deliver_pdu t ?ctx vci payload =
  Metrics.Counter.inc t.m_demux;
  if Trace.enabled () then
    Trace.instant Trace.Desc "ni.rx_demux" ~tid:t.host
      ~args:
        [
          ("vci", Trace.Int vci); ("len", Trace.Int (Buf.length payload));
        ];
  match Unet.Mux.lookup t.mux ~rx_vci:vci with
  | None -> ignore (Unet.Mux.deliver t.mux ~rx_vci:vci ?ctx payload)
  | Some (ep, _) ->
      let dest_offset, data =
        if ep.Unet.Endpoint.direct_access then parse_direct_prefix payload
        else (None, payload)
      in
      (match Unet.Mux.deliver t.mux ~rx_vci:vci ?ctx ?dest_offset data with
      | Some _ ->
          t.received <- t.received + 1;
          Metrics.Counter.inc t.m_received
      | None -> ())

let deliver t ?ctx vci payload =
  match t.fault with
  | Some f when Fault.rx_overrun f ->
      (* the rx ring overran while the PDU sat in i960 memory: it never
         reaches the mux, and recovery is the sender's problem *)
      Unet.Mux.rx_dropped ?ctx "ni_overrun";
      if Trace.enabled () then
        Trace.instant Trace.Desc "ni.rx_overrun" ~tid:t.host
          ~args:[ ("vci", Trace.Int vci) ]
  | _ -> deliver_pdu t ?ctx vci payload

let fits_single_cell payload =
  Buf.length payload <= Atm.Cell.payload_size - Atm.Aal5.trailer_size

(* The body of a per-cell rx job: feed the reassembler and, at the EOP,
   hand the PDU to the delivery job. Shared verbatim by the per-cell path
   (inside an rx_cell job) and the train path (as a deferred paced
   action). *)
let rx_cell_body t (cell : Atm.Cell.t) =
  let r =
    match Hashtbl.find_opt t.reasm cell.vci with
    | Some r -> r
    | None ->
        let r = Atm.Aal5.Reassembler.create () in
        Hashtbl.add t.reasm cell.vci r;
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
        if t.cfg.single_cell_optimization && fits_single_cell payload then
          t.cfg.rx_single_ns
        else t.cfg.rx_multi_fixed_ns
      in
      Sync.Server.submit t.server ~stage:"rx_deliver" ~cost (fun () ->
          deliver t ?ctx cell.vci payload)

let on_cell t (cell : Atm.Cell.t) =
  Sync.Server.submit t.server ~stage:"rx_cell" ~cost:t.cfg.rx_cell_ns
    (fun () -> rx_cell_body t cell)

(* A whole train arriving at the NI: model the run of per-cell rx jobs as
   one paced batch — cell i's handling starts once it has arrived and the
   previous one is done — with the reassembly pushes deferred to the batch
   completion (nothing observes the reassembler in between). The EOP push
   submits the delivery job for real, exactly as the per-cell path. *)
let on_train t train ~rx_vci ~deliveries =
  Atm.Cell.Train.receive t.sim t.server ~stage:"rx_cell" ~cost:t.cfg.rx_cell_ns
    ~faulted:(t.fault <> None) train ~rx_vci ~deliveries
    ~action:(rx_cell_body t) (on_cell t)

(* Calibration anchors (see DESIGN.md §4):
   - single-cell one-way = doorbell + tx_single + wire(~9.1 µs through the
     switch) + rx_cell + rx_single + rx_poll ≈ 32.5 µs  → 65 µs RTT
   - 48-byte (2-cell) one-way ≈ 60 µs → 120 µs RTT, dominated by the
     buffer-path fixed costs on both sides
   - per-cell i960 costs below the 3.03 µs wire serialization, so extra
     cells add ~3 µs each one-way and the fiber saturates once the fixed
     costs amortize: tx_fixed ≤ n·(3.03 − tx_per_cell) at n ≈ 17 cells
     (800 bytes). *)
let sba200_unet =
  {
    name = "SBA-200/U-Net";
    copy_layer = "sba200";
    doorbell_ns = 2_000;
    rx_poll_ns = 1_500;
    kernel_op_ns = 20_000; (* emulated endpoints pay a real system call *)
    tx_single_ns = 9_000;
    tx_fixed_ns = 20_000;
    tx_per_cell_ns = 1_800;
    rx_cell_ns = 1_800;
    rx_single_ns = 9_100;
    rx_multi_fixed_ns = 20_000;
    single_cell_optimization = true;
    max_endpoints = 16; (* bounded by the 256 KB i960 memory (§4.2.4) *)
    max_seg_size = 1024 * 1024;
  }

(* The fixed costs model the i960 traversing mbuf-style linked descriptors
   on the host via DMA (§4.2.1): ~41 µs per message on transmit, ~20 µs on
   receive, with no single-cell optimization. 4 KB packets: 86 cells →
   i960 tx time 41 + 86·3.2 ≈ 316 µs → ≈13 MB/s, wire-limited nowhere. *)
let sba200_fore =
  {
    name = "SBA-200/Fore";
    copy_layer = "sba200_fore";
    doorbell_ns = 3_000; (* host composes a linked buffer-chain descriptor *)
    rx_poll_ns = 1_500;
    kernel_op_ns = 20_000;
    tx_single_ns = 44_200; (* = tx_fixed + per-cell; no fast path *)
    tx_fixed_ns = 41_000;
    tx_per_cell_ns = 3_200;
    rx_cell_ns = 2_500;
    rx_single_ns = 20_000;
    rx_multi_fixed_ns = 20_000;
    single_cell_optimization = false;
    max_endpoints = 16;
    max_seg_size = 1024 * 1024;
  }

let create net ~host cfg =
  let sim = Atm.Network.sim net in
  let labels = [ ("host", string_of_int host); ("nic", cfg.name) ] in
  let t =
    {
      sim;
      net;
      host;
      cfg;
      server = Sync.Server.create ~owner:(host, [ "ni"; cfg.name ]) sim;
      kernel = Sync.Server.create sim;
      mux = Unet.Mux.create ~host ~copy_layer:(cfg.copy_layer ^ "_rx") ();
      txq = Queue.create ();
      tx_active = false;
      fault =
        Fault.configured_at Fault.Ni ~site:(Printf.sprintf "ni.%d" host);
      reasm = Hashtbl.create 16;
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
      m_dma_bytes =
        Metrics.counter ~help:"bytes the on-board processor DMAed out of segments"
          "ni_dma_bytes_total" labels;
    }
  in
  Atm.Network.attach_rx net ~host (fun cell -> on_cell t cell);
  Atm.Network.attach_rx_train net ~host (fun train ~rx_vci ~deliveries ->
      on_train t train ~rx_vci ~deliveries);
  Timeseries.register ~kind:Timeseries.Utilization "ni_i960_utilization"
    labels (fun () -> float_of_int (Sync.Server.busy_time t.server));
  Timeseries.register "ni_i960_queue_depth" labels (fun () ->
      float_of_int (Sync.Server.queue_length t.server));
  t

let backend t =
  {
    Unet.nic_name = t.cfg.name;
    notify_tx = (fun ep -> notify_tx t ep);
    mux = t.mux;
    max_endpoints = t.cfg.max_endpoints;
    max_seg_size = t.cfg.max_seg_size;
    doorbell_ns = t.cfg.doorbell_ns;
    rx_poll_ns = t.cfg.rx_poll_ns;
    kernel_op_ns = t.cfg.kernel_op_ns;
    kernel_path = Some t.kernel;
  }

let set_fault t f = t.fault <- Some f
let config t = t.cfg
let server t = t.server
let pdus_sent t = t.sent
let pdus_received t = t.received
let reassembly_errors t = t.errors
