open Engine

type job = Tx of int * Span.ctx option * Buf.t | Deliver of Buf.t

type t = {
  sim : Sim.t;
  cpu : Host.Cpu.t;
  mtu : int;
  mbox : job Sync.Mailbox.t;
  tx_queue_limit : int;
  mutable rx_handler : Buf.t -> unit;
  mutable rx_cost : Buf.t -> int;
  mutable transmit : Span.ctx option -> Buf.t -> unit;
      (* set once the pair is wired *)
  mutable dropped : int;
}

let sim t = t.sim
let cpu t = t.cpu
let mtu t = t.mtu
let tx_drops t = t.dropped
let queue_length t = Sync.Mailbox.length t.mbox
let queue_limit t = t.tx_queue_limit

let send t ?ctx ~cost_ns pkt =
  if Buf.length pkt > t.mtu then
    Fmt.invalid_arg "Iface.send: packet of %d bytes exceeds MTU %d"
      (Buf.length pkt) t.mtu;
  (* the SunOS behaviour of §7.4: the device transmit queue silently drops
     packets under overload, without telling the sending application *)
  if Sync.Mailbox.length t.mbox >= t.tx_queue_limit then
    t.dropped <- t.dropped + 1
  else Sync.Mailbox.send t.mbox (Tx (cost_ns, ctx, pkt))

let set_rx t ~rx_cost_ns handler =
  t.rx_cost <- rx_cost_ns;
  t.rx_handler <- handler

let deliver t pkt = Sync.Mailbox.send t.mbox (Deliver pkt)

(* The stack process: serializes all protocol processing on this host and
   charges its cost to the CPU. *)
let start_stack t =
  ignore
    (Proc.spawn ~name:"ipstack" t.sim (fun () ->
         (* protocol costs are charged here, not at the Iface.send call
            site, so the profile frames that split tx from rx must wrap
            the charges in this process *)
         let host = Host.Cpu.host t.cpu in
         let rec loop () =
           (match Sync.Mailbox.recv t.mbox with
           | Tx (cost, ctx, pkt) ->
               Profile.push ~host "iface.tx";
               Host.Cpu.charge ~layer:"ipstack" t.cpu cost;
               t.transmit ctx pkt;
               Profile.pop ~host ()
           | Deliver pkt ->
               Profile.push ~host "iface.rx";
               Host.Cpu.charge ~layer:"ipstack" t.cpu (t.rx_cost pkt);
               t.rx_handler pkt;
               Profile.pop ~host ());
           loop ()
         in
         loop ()))

let make ~sim ~cpu ~mtu ~tx_queue =
  let t =
    {
      sim;
      cpu;
      mtu;
      mbox = Sync.Mailbox.create sim;
      tx_queue_limit = tx_queue;
      rx_handler = (fun _ -> ());
      rx_cost = (fun _ -> 0);
      transmit = (fun _ _ -> failwith "Iface: not wired");
      dropped = 0;
    }
  in
  start_stack t;
  t

(* ------------------------------------------------------------------ *)
(* IP over U-Net (§7.1): one U-Net channel carries all the IP traffic
   between the two stacks, with no LLC/SNAP encapsulation (the paper notes
   its multiplexor cannot yet share a VCI as RFC 1577 classical IP-over-ATM
   requires) — so 40-byte TCP acks ride the single-cell fast path (§7.8).
   The kernel-ATM baseline, by contrast, uses the standard 8-byte LLC/SNAP
   header. *)

let llc_snap = Bytes.of_string "\xAA\xAA\x03\x00\x00\x00\x08\x00"
let llc_snap_buf = Buf.of_bytes llc_snap
let encap_size = 8
let ip_buffer_count = 32

(* prepending the encapsulation is pure slice concatenation *)
let encapsulate pkt = Buf.append llc_snap_buf pkt

let decapsulate frame =
  if
    Buf.length frame < encap_size
    || not (Buf.equal_bytes (Buf.sub frame ~pos:0 ~len:encap_size) llc_snap)
  then None
  else
    Some (Buf.sub frame ~pos:encap_size ~len:(Buf.length frame - encap_size))

let unet_poller t u (ep : Unet.Endpoint.t) alloc ~encap =
  ignore
    (Proc.spawn ~name:"ip-poller" t.sim (fun () ->
         let rec loop () =
           let pkt = Unet.take u ep alloc ~layer:"ip_rx" (Unet.recv u ep) in
           (if encap then
              match decapsulate pkt with
              | Some ip_pkt -> deliver t ip_pkt
              | None -> () (* not LLC/SNAP IP: discarded *)
            else deliver t pkt);
           loop ()
         in
         loop ()))

let unet_pair ?(mtu = 9_000) ?(tx_queue = 64) ?(encapsulation = false) ua ub =
  let encap = encapsulation in
  let ta = make ~sim:(Unet.sim ua) ~cpu:(Unet.cpu ua) ~mtu ~tx_queue in
  let tb = make ~sim:(Unet.sim ub) ~cpu:(Unet.cpu ub) ~mtu ~tx_queue in
  let side u =
    let block = mtu + 64 in
    Unet.open_endpoint u ~tx_slots:128 ~rx_slots:128
      ~free_slots:(ip_buffer_count + 1) ~seg_size:(2 * ip_buffer_count * block)
      ~block ~post:ip_buffer_count ()
  in
  let ep_a, alloc_a = side ua in
  let ep_b, alloc_b = side ub in
  let ch_a, ch_b = Unet.connect_pair (ua, ep_a) (ub, ep_b) in
  (* IP packets always stage through communication-segment buffers (no
     single-cell fast path: headers make even tiny datagrams multi-cell,
     which is why U-Net UDP starts at 138 µs over the 120 µs base); a
     packet the full send queue refuses is dropped *)
  let wire t u ep alloc ~chan =
    let st =
      Unet.stager u ep alloc ~layer:"ip_tx" ~wait:(Sim.us 5) ~on_full:`Drop
    in
    t.transmit <-
      (fun ctx pkt ->
        Unet.stage st ?ctx ~chan (if encap then encapsulate pkt else pkt));
    unet_poller t u ep alloc ~encap
  in
  wire ta ua ep_a alloc_a ~chan:ch_a;
  wire tb ub ep_b alloc_b ~chan:ch_b;
  (ta, tb)

(* ------------------------------------------------------------------ *)
(* A framed point-to-point byte link (Ethernet baseline). Packets larger
   than the wire MTU are fragmented; the ordered link lets the receiver
   reassemble sequentially. Frame format: [u32 pkt_len][u32 offset][data]. *)

type frame_link = {
  fl_sim : Sim.t;
  fl_frame_ns_per_byte : float;
  fl_propagation : Sim.time;
  mutable fl_busy_until : Sim.time;
  mutable fl_rx : Buf.t -> unit;
}

let frame_header = 8

(* pcap tap for the framed (Ethernet-baseline) link: each frame is
   captured with a synthetic 14-byte Ethernet header (zero MACs, a
   local-experimental ethertype) so Wireshark renders the capture. Bytes
   are materialized with the uncounted span iterator — captures must not
   perturb the copy accounting. *)
let capture_frame frame =
  if Pcapng.enabled () then begin
    let ifc = Pcapng.iface ~name:"eth0" ~linktype:Pcapng.linktype_ethernet in
    let b = Bytes.make (14 + Buf.length frame) '\000' in
    Bytes.set_uint16_be b 12 0x88B5;
    let pos = ref 14 in
    Buf.iter_spans frame (fun src ~pos:sp ~len ->
        Bytes.blit src sp b !pos len;
        pos := !pos + len);
    Pcapng.capture ~iface:ifc (Bytes.unsafe_to_string b)
  end

let link_transmit fl frame =
  capture_frame frame;
  let now = Sim.now fl.fl_sim in
  let start = max now fl.fl_busy_until in
  let ser =
    int_of_float
      (Float.round (float_of_int (Buf.length frame) *. fl.fl_frame_ns_per_byte))
  in
  fl.fl_busy_until <- start + ser;
  Sim.schedule_drop_at ~label:"iface.rx" fl.fl_sim
    (fl.fl_busy_until + fl.fl_propagation)
    (fun () -> fl.fl_rx frame)

type reasm = { mutable r_buf : bytes; mutable r_got : int }

let framed_pair ~sim ~cpu_a ~cpu_b ~bandwidth_mbps ~wire_mtu ~per_frame_ns
    ~propagation ?(tx_queue = 64) ?(ip_mtu = 9_000) () =
  let ns_per_byte = 8_000. /. bandwidth_mbps in
  let mk_link () =
    {
      fl_sim = sim;
      fl_frame_ns_per_byte = ns_per_byte;
      fl_propagation = propagation;
      fl_busy_until = 0;
      fl_rx = (fun _ -> ());
    }
  in
  let l_ab = mk_link () and l_ba = mk_link () in
  let ta = make ~sim ~cpu:cpu_a ~mtu:ip_mtu ~tx_queue in
  let tb = make ~sim ~cpu:cpu_b ~mtu:ip_mtu ~tx_queue in
  let mk_transmit cpu link _ctx pkt =
    (* fragment into wire-MTU frames, charging the driver per frame; each
       frame is a header plus a zero-copy slice of the packet (transports
       hand the interface packets they no longer mutate) *)
    let len = Buf.length pkt in
    let payload_max = wire_mtu - frame_header in
    let rec go off =
      if off < len then begin
        let flen = min payload_max (len - off) in
        let hdr = Bytes.create frame_header in
        Bytes.set_int32_be hdr 0 (Int32.of_int len);
        Bytes.set_int32_be hdr 4 (Int32.of_int off);
        let frame = Buf.append (Buf.of_bytes hdr) (Buf.sub pkt ~pos:off ~len:flen) in
        Host.Cpu.charge cpu per_frame_ns;
        link_transmit link frame;
        go (off + flen)
      end
    in
    go 0
  in
  let mk_rx t =
    let r = { r_buf = Bytes.empty; r_got = 0 } in
    fun frame ->
      let total = Int32.to_int (Buf.get_uint32_be frame 0) in
      let off = Int32.to_int (Buf.get_uint32_be frame 4) in
      let flen = Buf.length frame - frame_header in
      if off = 0 then begin
        r.r_buf <- Bytes.create total;
        r.r_got <- 0
      end;
      if Bytes.length r.r_buf = total then begin
        (* the driver's receive-side copy out of the device frame *)
        Buf.copy_into ~layer:"ether_rx"
          (Buf.sub frame ~pos:frame_header ~len:flen)
          ~dst:r.r_buf ~dst_pos:off;
        r.r_got <- r.r_got + flen;
        if r.r_got >= total then begin
          deliver t (Buf.of_bytes r.r_buf);
          r.r_buf <- Bytes.empty;
          r.r_got <- 0
        end
      end
  in
  ta.transmit <- mk_transmit cpu_a l_ab;
  tb.transmit <- mk_transmit cpu_b l_ba;
  l_ab.fl_rx <- mk_rx tb;
  l_ba.fl_rx <- mk_rx ta;
  (ta, tb)
