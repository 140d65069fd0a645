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
  rx : Rx.t;
  txq : Unet.Endpoint.t Queue.t; (* one entry per posted descriptor *)
  mutable tx_active : bool;
  (* The one descriptor in transmission: its cells, and the next cell to
     inject. Its jobs and retries read them here, through [send_job] and
     [inject_job], made once, so a cell costs no closure of its own. *)
  mutable tx_desc : Unet.Desc.tx option;
  mutable tx_cells : Atm.Cell.t array;
  mutable tx_i : int;
  send_job : unit -> unit;
  inject_job : unit -> unit;
  mutable sent : int;
  m_sent : Metrics.Counter.t;
  m_dma_bytes : Metrics.Counter.t;
}

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
        Buf.copy ~layer:(t.cfg.copy_layer ^ "_tx_dma") (Unet.frame ep desc)
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
              ("cells", Trace.Int (Array.length cells));
            ];
      (* a stalled DMA burst shows up as extra occupancy of the i960,
         delaying this descriptor and everything serialized behind it *)
      let stall =
        match Rx.fault t.rx with Some f -> Fault.dma_stall f | None -> 0
      in
      if stall > 0 && Trace.enabled () then
        Trace.instant Trace.Desc "ni.dma_stall" ~tid:t.host
          ~args:[ ("ns", Trace.Int stall) ];
      t.tx_desc <- Some desc;
      t.tx_cells <- cells;
      t.tx_i <- 0;
      if Array.length cells = 1 && t.cfg.single_cell_optimization then
        Sync.Server.submit t.server ~stage:"tx_single"
          ~cost:(t.cfg.tx_single_ns + stall) t.inject_job
      else if not (try_train t cells) then
        Sync.Server.submit t.server ~stage:"tx_dma"
          ~cost:(t.cfg.tx_fixed_ns + stall) t.send_job)

(* Send a multi-cell PDU as one analytically planned train (DESIGN.md §14):
   the whole uplink / switch / downlink journey is computed up front and the
   i960 runs a chain batch standing in for the setup + per-cell unit jobs.
   Returns false — caller stays on the per-cell path — when any observer or
   site condition forbids it or any element refuses the plan. *)
and try_train t cells =
  if
    (not (Trainmode.active ()))
    || Rx.fault t.rx <> None
    || not (Sync.Server.idle t.server)
    || Array.length cells < 2
  then false
  else
    let train = Atm.Cell.Train.of_cells cells in
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
          ~on_done:(fun () -> chain_done t)
          ~on_split:(fun ~accepted ~phase -> chain_split t ~train ~accepted ~phase)
          ();
        true

(* The chain's last cell was accepted: identical to the last per-cell
   inject's success continuation, with the interfere hook retired before
   the pump possibly commits the next train. *)
and chain_done t =
  Atm.Link.clear_interfere (Atm.Network.uplink t.net ~host:t.host);
  pdu_injected t

(* A plain job interfered with the chain: the train keeps its [accepted]
   prefix (planned state past now was just discarded by the truncation
   listeners) and the remaining cells re-enter the per-cell path from
   exactly where the batch stood. *)
and chain_split t ~train ~accepted ~phase =
  let uplink = Atm.Network.uplink t.net ~host:t.host in
  Atm.Link.clear_interfere uplink;
  Atm.Cell.Train.truncate train ~keep:accepted ~now:(Sim.now t.sim);
  t.tx_i <- accepted;
  match phase with
  | Sync.Server.Chain_first f_end ->
      (* the fixed-cost setup job is in flight; at its end the per-cell
         path starts submitting unit jobs *)
      Sync.Server.resume_inflight t.server ~until:f_end ~k:t.send_job
  | Sync.Server.Chain_unit u_end ->
      (* the pending cell's unit job is in flight; its completion is the
         cell's first send attempt *)
      Sync.Server.resume_inflight t.server ~until:u_end ~k:t.inject_job
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
      if !at = now then inject t
      else
        Sim.schedule_drop ~label:"ni.retry" t.sim ~delay:(!at - now)
          t.inject_job

(* the per-cell path from cell [tx_i] on *)
and send_cells t =
  if t.tx_i < Array.length t.tx_cells then
    Sync.Server.submit t.server ~stage:"tx_cell" ~cost:t.cfg.tx_per_cell_ns
      t.inject_job

and inject t =
  let i = t.tx_i in
  if Atm.Network.send t.net ~host:t.host t.tx_cells.(i) then
    if i = Array.length t.tx_cells - 1 then pdu_injected t
    else begin
      t.tx_i <- i + 1;
      send_cells t
    end
  else
    (* NI output FIFO full: stall one cell time and retry (the i960 polls
       the FIFO level; cells are never dropped on the way out). *)
    let retry_delay =
      Atm.Link.cell_time (Atm.Network.uplink t.net ~host:t.host)
    in
    Sim.schedule_drop ~label:"ni.retry" t.sim ~delay:retry_delay t.inject_job

and pdu_injected t =
  (match t.tx_desc with
  | Some desc -> desc.Unet.Desc.injected <- true
  | None -> assert false);
  t.tx_desc <- None;
  t.tx_cells <- [||];
  t.sent <- t.sent + 1;
  Metrics.Counter.inc t.m_sent;
  pump_next t

let notify_tx t ep =
  Queue.add ep t.txq;
  if not t.tx_active then begin
    t.tx_active <- true;
    pump_next t
  end

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
  let m_sent =
    Metrics.counter ~help:"PDUs injected onto the wire by a NI"
      "ni_pdus_sent_total" labels
  in
  let server = Sync.Server.create ~owner:(host, [ "ni"; cfg.name ]) sim in
  let mux = Unet.Mux.create ~host ~copy_layer:(cfg.copy_layer ^ "_rx") () in
  let rx =
    Rx.create net ~host ~labels ~server ~mux ~cell_ns:cfg.rx_cell_ns
      ~single_ns:
        (if cfg.single_cell_optimization then cfg.rx_single_ns
         else cfg.rx_multi_fixed_ns)
      ~multi_ns:cfg.rx_multi_fixed_ns
  in
  let rec t =
    {
      sim;
      net;
      host;
      cfg;
      server;
      kernel = Sync.Server.create sim;
      mux;
      rx;
      txq = Queue.create ();
      tx_active = false;
      tx_desc = None;
      tx_cells = [||];
      tx_i = 0;
      send_job = (fun () -> send_cells t);
      inject_job = (fun () -> inject t);
      sent = 0;
      m_sent;
      m_dma_bytes =
        Metrics.counter ~help:"bytes the on-board processor DMAed out of segments"
          "ni_dma_bytes_total" labels;
    }
  in
  Atm.Network.attach_rx net ~host (Rx.on_cell rx);
  Atm.Network.attach_rx_train net ~host (Rx.on_train rx);
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

let server t = t.server
let pdus_sent t = t.sent
let pdus_received t = Rx.pdus_received t.rx
let reassembly_errors t = Rx.reassembly_errors t.rx
