module Desc = Desc
module Ring = Ring
module Segment = Segment
module Channel = Channel
module Endpoint = Endpoint
module Mux = Mux
open Engine

let log_src = Logs.Src.create "unet" ~doc:"U-Net user API"

module Log = (val Logs.src_log log_src : Logs.LOG)

type backend = {
  nic_name : string;
  notify_tx : Endpoint.t -> unit;
  mux : Mux.t;
  max_endpoints : int;
  max_seg_size : int;
  doorbell_ns : int;
  rx_poll_ns : int;
  kernel_op_ns : int;
  kernel_path : Sync.Server.t option;
}

(* The kernel's multiplexing state (§3.5): all emulated endpoints on a host
   share one real endpoint, which the kernel owns. Outbound descriptors are
   staged (copied) into the kernel endpoint's segment; inbound messages are
   demultiplexed by the kernel channel id and copied into the emulated
   endpoint's own segment. *)
type kemu = {
  kep : Endpoint.t; (* the single real endpoint *)
  kalloc : Segment.Allocator.t;
  kstage : stager; (* outbound messages too big for a descriptor *)
  kmbox : Endpoint.t Sync.Mailbox.t; (* one entry per posted descriptor *)
  kdemux : (Channel.id, Endpoint.t * Channel.id) Hashtbl.t;
      (* kernel chan -> (emulated endpoint, its channel id) *)
  ktx : (int * Channel.id, Channel.id) Hashtbl.t;
      (* (emulated ep id, emulated chan) -> kernel chan *)
}

(* Sends staged into blocks of [s_alloc], each held until the NI has
   injected its descriptor. *)
and stager = {
  s_unet : t;
  s_ep : Endpoint.t;
  s_alloc : Segment.Allocator.t;
  s_layer : string; (* the staging copy's layer *)
  s_wait : Sim.time; (* re-poll while every block is in flight *)
  s_retry : bool; (* re-poll a full send queue, or drop the message *)
  s_in_flight : (Desc.tx * (int * int) list) Queue.t;
}

and t = {
  cpu : Host.Cpu.t;
  net : Atm.Network.t;
  host : int;
  backend : backend;
  pinned : Host.Pinned.t;
  mutable endpoints : Endpoint.t list;
  mutable real_endpoints : int; (* non-emulated: consume NI resources *)
  mutable next_ep_id : int;
  mutable next_chan_id : int;
  mutable kemu : kemu option;
  m_doorbells : Metrics.Counter.t;
}

type error =
  | Too_many_endpoints
  | Pinned_exhausted
  | Segment_too_large
  | Queue_full
  | Free_queue_full
  | Bad_channel
  | Bad_buffer of string
  | Inline_too_large
  | Not_direct_access

let pp_error fmt = function
  | Too_many_endpoints -> Format.pp_print_string fmt "too many endpoints"
  | Pinned_exhausted -> Format.pp_print_string fmt "pinned memory exhausted"
  | Segment_too_large -> Format.pp_print_string fmt "segment too large"
  | Queue_full -> Format.pp_print_string fmt "send queue full"
  | Free_queue_full -> Format.pp_print_string fmt "free queue full"
  | Bad_channel -> Format.pp_print_string fmt "channel not registered"
  | Bad_buffer msg -> Format.fprintf fmt "bad buffer: %s" msg
  | Inline_too_large -> Format.pp_print_string fmt "inline payload too large"
  | Not_direct_access -> Format.pp_print_string fmt "not a direct-access endpoint"

let create ~cpu ~net ~host ?(pinned_capacity = 8 * 1024 * 1024) backend =
  {
    cpu;
    net;
    host;
    backend;
    pinned = Host.Pinned.create ~capacity:pinned_capacity;
    endpoints = [];
    real_endpoints = 0;
    next_ep_id = 0;
    next_chan_id = 0;
    kemu = None;
    m_doorbells =
      Metrics.counter ~help:"send doorbells rung (tx descriptors posted)"
        "ni_doorbells_total"
        [ ("host", string_of_int host); ("nic", backend.nic_name) ];
  }

let sim t = Host.Cpu.sim t.cpu
let host t = t.host
let cpu t = t.cpu
let net t = t.net
let pinned t = t.pinned
let endpoint_count t = List.length t.endpoints

(* A kernel-emulated endpoint pays a system call, serialized through the
   kernel path, on top of the operation's own cost. *)
let charge_op ?layer t (ep : Endpoint.t) ns =
  if ep.emulated then begin
    match t.backend.kernel_path with
    | Some server ->
        let cost =
          Host.Machine.scale (Host.Cpu.machine t.cpu)
            (t.backend.kernel_op_ns + ns)
        in
        Proc.suspend (fun resume -> Sync.Server.submit server ~cost resume)
    | None -> Host.Cpu.charge ~layer:"kernel" t.cpu (t.backend.kernel_op_ns + ns)
  end
  else Host.Cpu.charge ?layer t.cpu ns

let create_endpoint t ?(emulated = false) ?(direct_access = false)
    ?(tx_slots = 64) ?(rx_slots = 64) ?(free_slots = 64) ~seg_size () =
  if seg_size > t.backend.max_seg_size && not direct_access then
    Error Segment_too_large
  else if (not emulated) && t.real_endpoints >= t.backend.max_endpoints then
    Error Too_many_endpoints
  else begin
    let ep =
      Endpoint.create ~sim:(sim t) ~id:t.next_ep_id ~host:t.host ~seg_size
        ~tx_slots ~rx_slots ~free_slots ~emulated ~direct_access
    in
    if not (Host.Pinned.reserve t.pinned (Endpoint.pinned_bytes ep)) then
      Error Pinned_exhausted
    else begin
      t.next_ep_id <- t.next_ep_id + 1;
      t.endpoints <- ep :: t.endpoints;
      if not emulated then t.real_endpoints <- t.real_endpoints + 1;
      (* expose each ring's high-water mark; read lazily at dump time *)
      let ring_gauge name read =
        Metrics.gauge_fn
          ~help:"deepest an endpoint message queue has ever been"
          "unet_ring_high_water"
          [
            ("endpoint", string_of_int ep.ep_id);
            ("host", string_of_int t.host);
            ("ring", name);
          ]
          (fun () -> float_of_int (read ()))
      in
      ring_gauge "tx" (fun () -> Ring.high_water ep.tx_ring);
      ring_gauge "rx" (fun () -> Ring.high_water ep.rx_ring);
      ring_gauge "free" (fun () -> Ring.high_water ep.free_ring);
      (* continuous occupancy probes, one series per ring *)
      let ring_probe name ring =
        Timeseries.register "unet_ring_occupancy"
          [
            ("endpoint", string_of_int ep.ep_id);
            ("host", string_of_int t.host);
            ("ring", name);
          ]
          (fun () -> float_of_int (Ring.length ring))
      in
      ring_probe "tx" ep.tx_ring;
      ring_probe "rx" ep.rx_ring;
      ring_probe "free" ep.free_ring;
      (* post-mortem ring snapshot for the flight recorder *)
      let ring_json (r : _ Ring.t) =
        Json.Obj
          [
            ("length", Json.Num (float_of_int (Ring.length r)));
            ("capacity", Json.Num (float_of_int (Ring.capacity r)));
            ("high_water", Json.Num (float_of_int (Ring.high_water r)));
          ]
      in
      Recorder.register_snapshot
        (Printf.sprintf "unet.host%d.ep%d" t.host ep.ep_id)
        (fun () ->
          Json.Obj
            [
              ("tx_ring", ring_json ep.tx_ring);
              ("rx_ring", ring_json ep.rx_ring);
              ("free_ring", ring_json ep.free_ring);
              ("emulated", Json.Bool ep.emulated);
            ]);
      Ok ep
    end
  end

let destroy_endpoint t (ep : Endpoint.t) =
  if List.memq ep t.endpoints then begin
    List.iter
      (fun (c : Channel.t) -> Mux.unregister t.backend.mux ~rx_vci:c.rx_vci)
      ep.channels;
    (* drop any kernel multiplexing entries pointing at this endpoint *)
    (match t.kemu with
    | Some k ->
        Hashtbl.iter
          (fun kchan (e, _) ->
            if e == ep then Hashtbl.remove k.kdemux kchan)
          (Hashtbl.copy k.kdemux);
        List.iter
          (fun (c : Channel.t) -> Hashtbl.remove k.ktx (ep.ep_id, c.id))
          ep.channels
    | None -> ());
    ep.channels <- [];
    Host.Pinned.release t.pinned (Endpoint.pinned_bytes ep);
    t.endpoints <- List.filter (fun e -> not (e == ep)) t.endpoints;
    if not ep.emulated then t.real_endpoints <- t.real_endpoints - 1
  end

let fresh_chan_id t =
  let id = t.next_chan_id in
  t.next_chan_id <- t.next_chan_id + 1;
  id

let validate_payload (ep : Endpoint.t) = function
  | Desc.Inline b ->
      if Buf.length b > Desc.inline_max then Error Inline_too_large else Ok ()
  | Desc.Buffers ranges ->
      let rec check = function
        | [] -> Ok ()
        | (off, len) :: rest -> (
            match Segment.check_range ep.segment ~off ~len with
            | Ok () -> check rest
            | Error msg -> Error (Bad_buffer msg))
      in
      check ranges

let kemu_notify t ep =
  match t.kemu with
  | Some k -> Sync.Mailbox.send k.kmbox ep
  | None ->
      (* backends with no real endpoints (the SBA-100) service emulated
         endpoints directly: the NI model *is* the kernel *)
      t.backend.notify_tx ep

let send t (ep : Endpoint.t) (desc : Desc.tx) =
  match Endpoint.find_channel ep desc.chan with
  | None -> Error Bad_channel
  | Some _ -> (
      match validate_payload ep desc.tx_payload with
      | Error e -> Error e
      | Ok () ->
          if desc.dest_offset <> None && not ep.direct_access then
            Error Not_direct_access
          else if
            desc.dest_offset <> None
            && Desc.payload_length desc.tx_payload = 0
          then Error (Bad_buffer "empty direct-access message")
          else begin
            (* a raw descriptor push with no upper-layer context starts
               its own trace here — minted even with span collection
               off, so the latency sketch always has a mint time *)
            if desc.ctx = None then
              desc.ctx <- Some (Span.root ~host:t.host "unet_msg");
            charge_op ~layer:"unet_doorbell" t ep t.backend.doorbell_ns;
            Metrics.Counter.inc t.m_doorbells;
            if Ring.push ep.tx_ring desc then begin
              Span.mark desc.ctx Span.Doorbell;
              if ep.emulated then kemu_notify t ep
              else t.backend.notify_tx ep;
              Ok ()
            end
            else Error Queue_full
          end)

let mark_popped (d : Desc.rx option) =
  (match d with Some d -> Span.mark d.ctx Span.Popped | None -> ());
  d

let poll t (ep : Endpoint.t) =
  charge_op ~layer:"unet_rx_poll" t ep t.backend.rx_poll_ns;
  mark_popped (Ring.pop ep.rx_ring)

let recv t (ep : Endpoint.t) =
  let rec loop () =
    Sync.Condition.wait_for ep.rx_cond (fun () -> not (Ring.is_empty ep.rx_ring));
    charge_op ~layer:"unet_rx_poll" t ep t.backend.rx_poll_ns;
    (* another receiver may have taken it while we were charged *)
    match mark_popped (Ring.pop ep.rx_ring) with
    | Some d -> d
    | None -> loop ()
  in
  loop ()

let recv_timeout t (ep : Endpoint.t) ~timeout =
  let deadline = Sim.now (sim t) + timeout in
  let rec loop () =
    if not (Ring.is_empty ep.rx_ring) then begin
      charge_op ~layer:"unet_rx_poll" t ep t.backend.rx_poll_ns;
      match mark_popped (Ring.pop ep.rx_ring) with
      | Some d -> Some d
      | None -> loop ()
    end
    else if Sim.now (sim t) >= deadline then None
    else begin
      (* Wait for a delivery or the deadline, whichever comes first. A
         helper process waits on the rx condition; the deadline event races
         with it, and [fired] arbitrates so the caller is resumed once. *)
      let fired = ref false in
      Proc.suspend (fun resume ->
          let resume_once cancel_deadline =
            if not !fired then begin
              fired := true;
              cancel_deadline ();
              resume ()
            end
          in
          let deadline_h =
            Sim.schedule_at ~label:"unet.recv_deadline" (sim t) deadline (fun () ->
                resume_once (fun () -> ()))
          in
          ignore
            (Proc.spawn ~name:"recv-timeout" (sim t) (fun () ->
                 Sync.Condition.wait ep.rx_cond;
                 resume_once (fun () -> Sim.cancel deadline_h))));
      loop ()
    end
  in
  loop ()

let provide_free_buffer t (ep : Endpoint.t) ~off ~len =
  ignore t;
  match Segment.check_range ep.segment ~off ~len with
  | Error msg -> Error (Bad_buffer msg)
  | Ok () ->
      if Ring.push ep.free_ring (off, len) then Ok () else Error Free_queue_full

let set_upcall t (ep : Endpoint.t) cond f =
  ignore t;
  ep.upcall <- Some (cond, f)

let disable_upcalls t (ep : Endpoint.t) =
  ignore t;
  ep.upcalls_enabled <- false

let enable_upcalls t (ep : Endpoint.t) =
  ignore t;
  ep.upcalls_enabled <- true;
  (* fire immediately if the condition already holds: the process must not
     miss messages that arrived inside the critical section *)
  if not (Ring.is_empty ep.rx_ring) then Endpoint.fire_upcalls ep ~was_empty:true

(* ------------------------------------------------------------------ *)
(* The process's buffer duties (§3): post receive buffers, take a
   received message out of its buffers, and stage sends into blocks that
   come back once the NI has injected them. *)

let open_endpoint t ?emulated ?direct_access ?tx_slots ?rx_slots ~free_slots
    ~seg_size ~block ~post () =
  let fail e = Fmt.invalid_arg "Unet.open_endpoint: %a" pp_error e in
  match
    create_endpoint t ?emulated ?direct_access ?tx_slots ?rx_slots ~free_slots
      ~seg_size ()
  with
  | Error e -> fail e
  | Ok ep ->
      let alloc = Segment.Allocator.create ep.segment ~block in
      for _ = 1 to post do
        match Segment.Allocator.alloc alloc with
        | Some (off, len) -> (
            match provide_free_buffer t ep ~off ~len with
            | Ok () -> ()
            | Error e -> fail e)
        | None ->
            invalid_arg
              "Unet.open_endpoint: segment too small for the receive buffers"
      done;
      (ep, alloc)

let gather_payload (ep : Endpoint.t) = function
  | Desc.Inline b -> b
  | Desc.Buffers ranges ->
      Buf.concat
        (List.map (fun (off, len) -> Segment.view ep.segment ~off ~len) ranges)

let frame (ep : Endpoint.t) (desc : Desc.tx) =
  let data = gather_payload ep desc.tx_payload in
  if ep.direct_access then Mux.frame ~dest_offset:desc.dest_offset data
  else data

(* hand each received buffer back whole, at the allocator's block size *)
let rec return_blocks who t ep ~block = function
  | [] -> ()
  | (off, _) :: rest ->
      (match provide_free_buffer t ep ~off ~len:block with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%s: %a" who pp_error e);
      return_blocks who t ep ~block rest

let take t ep alloc ~layer (d : Desc.rx) =
  match d.rx_payload with
  | Desc.Inline b -> b (* a snapshot owned by the descriptor *)
  | Desc.Buffers bufs ->
      (* copy out before the buffers go back on the free queue: the NI may
         refill them at any point after *)
      let data = Buf.copy ~layer (gather_payload ep d.rx_payload) in
      return_blocks "Unet.take" t ep
        ~block:(Segment.Allocator.block_size alloc)
        bufs;
      data

let release t ep alloc (d : Desc.rx) =
  match d.rx_payload with
  | Desc.Inline _ -> ()
  | Desc.Buffers bufs ->
      return_blocks "Unet.release" t ep
        ~block:(Segment.Allocator.block_size alloc)
        bufs

let stager t ep alloc ~layer ~wait ~on_full =
  {
    s_unet = t;
    s_ep = ep;
    s_alloc = alloc;
    s_layer = layer;
    s_wait = wait;
    s_retry = (on_full = `Retry);
    s_in_flight = Queue.create ();
  }

(* take back the blocks of every send the NI has injected, oldest first *)
let rec reap s =
  match Queue.peek_opt s.s_in_flight with
  | Some ((desc : Desc.tx), bufs) when desc.injected ->
      ignore (Queue.pop s.s_in_flight);
      List.iter (Segment.Allocator.free s.s_alloc) bufs;
      reap s
  | _ -> ()

(* false when the send queue is full and the stager drops *)
let rec push s desc =
  match send s.s_unet s.s_ep desc with
  | Ok () -> true
  | Error Queue_full when s.s_retry ->
      Proc.sleep (sim s.s_unet) ~time:s.s_wait;
      push s desc
  | Error Queue_full -> false
  | Error e -> Fmt.failwith "Unet.stage: %a" pp_error e

let stage s ?ctx ~chan data =
  let len = Buf.length data in
  (* at least one block; when all are in flight, wait for the NI *)
  let rec take_blocks acc got =
    if got >= len && acc <> [] then List.rev acc
    else begin
      reap s;
      match Segment.Allocator.alloc s.s_alloc with
      | Some ((_, blen) as b) -> take_blocks (b :: acc) (got + blen)
      | None ->
          Proc.sleep (sim s.s_unet) ~time:s.s_wait;
          take_blocks acc got
    end
  in
  let bufs = take_blocks [] 0 in
  let pos = ref 0 in
  let ranges =
    List.map
      (fun (off, blen) ->
        let n = min blen (len - !pos) in
        Segment.write_buf ~layer:s.s_layer s.s_ep.segment ~off
          (Buf.sub data ~pos:!pos ~len:n);
        pos := !pos + n;
        (off, n))
      bufs
  in
  let desc = Desc.tx ?ctx ~chan (Desc.Buffers ranges) in
  if push s desc then Queue.add (desc, bufs) s.s_in_flight
  else List.iter (Segment.Allocator.free s.s_alloc) bufs

(* ------------------------------------------------------------------ *)
(* The kernel multiplexor for emulated endpoints (§3.5).               *)

(* the kernel's transmit side: drain one emulated descriptor through the
   shared real endpoint *)
let kemu_tx t k (ep : Endpoint.t) =
  match Ring.pop ep.tx_ring with
  | None -> ()
  | Some desc -> (
      match Hashtbl.find_opt k.ktx (ep.ep_id, desc.chan) with
      | None -> () (* channel torn down after posting *)
      | Some kchan ->
          let data = frame ep desc in
          (* the kernel's staging copy into its own pinned buffers *)
          Host.Cpu.charge ~layer:"kernel" t.cpu t.backend.kernel_op_ns;
          Host.Cpu.charge_copy t.cpu ~bytes:(Buf.length data);
          desc.injected <- true;
          if Buf.length data <= Desc.inline_max then begin
            (* snapshot out of the emulated segment: the descriptor may
               outlive the application's reuse of that memory *)
            let staged = Buf.copy ~layer:"kernel" data in
            ignore
              (push k.kstage
                 (Desc.tx ?ctx:desc.ctx ~chan:kchan (Desc.Inline staged))
                : bool)
          end
          else stage k.kstage ?ctx:desc.ctx ~chan:kchan data)

(* the kernel's receive side: demultiplex arriving messages back to the
   owning emulated endpoint, with a copy into its segment *)
let kemu_rx t k (d : Desc.rx) =
  let data = take t k.kep k.kalloc ~layer:"kernel" d in
  match Hashtbl.find_opt k.kdemux d.src_chan with
  | None ->
      Mux.rx_dropped ?ctx:d.ctx "unknown_channel";
      Log.debug (fun m ->
          m "kernel mux: message on unknown kernel channel %d dropped"
            d.src_chan)
  | Some (ep, emu_chan) ->
      Host.Cpu.charge ~layer:"kernel" t.cpu t.backend.kernel_op_ns;
      Host.Cpu.charge_copy t.cpu ~bytes:(Buf.length data);
      ignore (Mux.deliver_to ~copy_layer:"kernel" ?ctx:d.ctx ep ~chan:emu_chan data)

let ensure_kemu t =
  match t.kemu with
  | Some k -> k
  | None ->
      let kep, kalloc =
        open_endpoint t ~tx_slots:128 ~rx_slots:128 ~free_slots:33
          ~seg_size:(64 * 4_160) ~block:4_160 ~post:32 ()
      in
      let k =
        {
          kep;
          kalloc;
          kstage =
            stager t kep kalloc ~layer:"kernel" ~wait:(Sim.us 10)
              ~on_full:`Retry;
          kmbox = Sync.Mailbox.create (sim t);
          kdemux = Hashtbl.create 16;
          ktx = Hashtbl.create 16;
        }
      in
      ignore
        (Proc.spawn ~name:"kernel-mux-tx" (sim t) (fun () ->
             let rec loop () =
               let ep = Sync.Mailbox.recv k.kmbox in
               kemu_tx t k ep;
               loop ()
             in
             loop ()));
      ignore
        (Proc.spawn ~name:"kernel-mux-rx" (sim t) (fun () ->
             let rec loop () =
               kemu_rx t k (recv t k.kep);
               loop ()
             in
             loop ()));
      t.kemu <- Some k;
      k

(* Register one side of a new channel: real endpoints register their tag
   with the NI mux directly; emulated endpoints register the *kernel's*
   endpoint under a fresh kernel channel id and record the mapping (§3.5).
   Backends with no real endpoints (max_endpoints = 0, the SBA-100) service
   emulated endpoints in the kernel already, so they register directly. *)
let register_side t (ep : Endpoint.t) (chan : Channel.t) =
  if ep.emulated && t.backend.max_endpoints > 0 then begin
    let k = ensure_kemu t in
    let kchan = fresh_chan_id t in
    Mux.register t.backend.mux ~rx_vci:chan.rx_vci k.kep ~chan:kchan;
    k.kep.channels <-
      {
        Channel.id = kchan;
        tx_vci = chan.tx_vci;
        rx_vci = chan.rx_vci;
        peer_host = chan.peer_host;
        peer_endpoint = chan.peer_endpoint;
      }
      :: k.kep.channels;
    Hashtbl.replace k.kdemux kchan (ep, chan.id);
    Hashtbl.replace k.ktx (ep.ep_id, chan.id) kchan
  end
  else Mux.register t.backend.mux ~rx_vci:chan.rx_vci ep ~chan:chan.id;
  ep.channels <- chan :: ep.channels

let connect_pair (ta, epa) (tb, epb) =
  if not (ta.net == tb.net) then
    invalid_arg "Unet.connect_pair: hosts on different networks";
  (* direct-access endpoints use a different wire framing (the deposit
     offset travels in the PDU), so both ends must agree *)
  if epa.Endpoint.direct_access <> epb.Endpoint.direct_access then
    invalid_arg
      "Unet.connect_pair: cannot connect a direct-access endpoint to a \
       base-level one";
  let conn = Atm.Network.connect ta.net ~a:ta.host ~b:tb.host in
  let chan_a = fresh_chan_id ta and chan_b = fresh_chan_id tb in
  let ca =
    {
      Channel.id = chan_a;
      tx_vci = conn.side_a.tx_vci;
      rx_vci = conn.side_a.rx_vci;
      peer_host = tb.host;
      peer_endpoint = epb.Endpoint.ep_id;
    }
  and cb =
    {
      Channel.id = chan_b;
      tx_vci = conn.side_b.tx_vci;
      rx_vci = conn.side_b.rx_vci;
      peer_host = ta.host;
      peer_endpoint = epa.Endpoint.ep_id;
    }
  in
  register_side ta epa ca;
  register_side tb epb cb;
  (chan_a, chan_b)

let disconnect t (ep : Endpoint.t) chan_id =
  match Endpoint.find_channel ep chan_id with
  | None -> ()
  | Some c ->
      Mux.unregister t.backend.mux ~rx_vci:c.Channel.rx_vci;
      (match t.kemu with
      | Some k -> (
          match Hashtbl.find_opt k.ktx (ep.ep_id, chan_id) with
          | Some kchan ->
              Hashtbl.remove k.kdemux kchan;
              Hashtbl.remove k.ktx (ep.ep_id, chan_id);
              k.kep.channels <-
                List.filter
                  (fun (x : Channel.t) -> x.id <> kchan)
                  k.kep.channels
          | None -> ())
      | None -> ());
      ep.channels <- List.filter (fun x -> x.Channel.id <> chan_id) ep.channels

let kernel_endpoint t = Option.map (fun k -> k.kep) t.kemu
