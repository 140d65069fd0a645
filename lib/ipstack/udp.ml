open Engine

let header_size = 8

type costs = {
  app_send_ns : int -> int;
  stack_send_ns : int -> int;
  stack_recv_ns : int -> int;
  app_recv_ns : int -> int;
  backpressure : bool;
}

(* §7.6: checksum is ~1 µs/100 B and can be combined with the copy; the
   fixed part covers header construction, the pcb-cache lookup and buffer
   management in the user-level library, all of which run in the
   application's own process. *)
let unet_costs =
  {
    app_send_ns = (fun _ -> 4_000);
    stack_send_ns = (fun _ -> 500);
    stack_recv_ns = (fun _ -> 1_000);
    app_recv_ns = (fun _ -> 3_500);
    backpressure = true;
  }

(* The kernel path splits per the real division of labour: socket layer and
   user/kernel copy in the system call, mbuf + protocol + driver work in the
   kernel's network processing. *)
let kernel_costs kcfg =
  let copy len =
    int_of_float
      (Float.round (float_of_int len *. kcfg.Host.Kernel.copy_ns_per_byte))
  in
  {
    app_send_ns =
      (fun len -> kcfg.Host.Kernel.socket_layer_ns + copy len);
    stack_send_ns =
      (fun len ->
        Host.Mbuf.handling_cost kcfg.Host.Kernel.mbuf len
        + kcfg.Host.Kernel.udp_ns + kcfg.Host.Kernel.driver_ns);
    stack_recv_ns =
      (fun len ->
        kcfg.Host.Kernel.driver_ns
        + Host.Mbuf.handling_cost kcfg.Host.Kernel.mbuf len
        + kcfg.Host.Kernel.udp_ns);
    app_recv_ns =
      (fun len -> kcfg.Host.Kernel.socket_layer_ns + copy len);
    backpressure = false;
  }

type socket = {
  s_port : int;
  s_stack : stack;
  s_queue : (int * int * Buf.t) Queue.t;
      (* queued datagrams are views of delivered packets, which own their
         storage (see Iface) — retaining them until recvfrom is safe *)
  s_cond : Sync.Condition.t;
  s_sockbuf : Host.Kernel.Sockbuf.t option;
  mutable s_open : bool;
}

and stack = {
  ip : Ipv4.t;
  checksum : bool;
  sockbuf_limit : int option;
  costs : costs;
  ports : (int, socket) Hashtbl.t;
  (* pcb cache (§7.6): the last destination port resolved *)
  mutable pcb_cache : socket option;
}

let ip t = t.ip

let checksum_cost t len = if t.checksum then Checksum.cost_ns len else 0

let lookup t port =
  match t.pcb_cache with
  | Some s when s.s_port = port && s.s_open -> Some s
  | _ ->
      let r = Hashtbl.find_opt t.ports port in
      (match r with Some s when s.s_open -> t.pcb_cache <- r | _ -> ());
      r

let attach ?(checksum = true) ?sockbuf_limit ~costs ip =
  let t =
    {
      ip;
      checksum;
      sockbuf_limit;
      costs;
      ports = Hashtbl.create 16;
      pcb_cache = None;
    }
  in
  let rx_cost payload =
    t.costs.stack_recv_ns (Buf.length payload)
    + checksum_cost t (Buf.length payload)
  in
  let rx ~src payload =
    if Buf.length payload < header_size then
      Ipv4.rx_dropped ~proto:"udp" "short"
    else begin
      let sport = Buf.get_uint16_be payload 0 in
      let dport = Buf.get_uint16_be payload 2 in
      let ok =
        (not t.checksum)
        || Buf.get_uint16_be payload 6 = 0 (* sender had checksum off *)
        || Checksum.verify_buf payload
      in
      if not ok then Ipv4.rx_dropped ~proto:"udp" "bad_checksum"
      else
        match lookup t dport with
        | None -> () (* no listener: silently dropped (no ICMP, §7.1) *)
        | Some s ->
            let data =
              Buf.sub payload ~pos:header_size
                ~len:(Buf.length payload - header_size)
            in
            let accept =
              match s.s_sockbuf with
              | Some sb -> Host.Kernel.Sockbuf.offer sb (Buf.length data)
              | None -> true
            in
            if accept then begin
              Queue.add (src, sport, data) s.s_queue;
              Sync.Condition.broadcast s.s_cond
            end
    end
  in
  Ipv4.register ip Ipv4.Udp ~rx_cost_ns:rx_cost rx;
  t

let socket t ~port =
  if Hashtbl.mem t.ports port then Fmt.invalid_arg "Udp.socket: port %d taken" port;
  let s =
    {
      s_port = port;
      s_stack = t;
      s_queue = Queue.create ();
      s_cond = Sync.Condition.create (Ipv4.sim t.ip);
      s_sockbuf =
        Option.map (fun limit -> Host.Kernel.Sockbuf.create ~limit) t.sockbuf_limit;
      s_open = true;
    }
  in
  Hashtbl.add t.ports port s;
  s

let close s =
  s.s_open <- false;
  Hashtbl.remove s.s_stack.ports s.s_port;
  if s.s_stack.pcb_cache == Some s then s.s_stack.pcb_cache <- None

let sendto s ~dst ~dst_port data =
  let t = s.s_stack in
  (* the system call / user-level protocol work happens in the caller *)
  Host.Cpu.charge (Ipv4.cpu t.ip) (t.costs.app_send_ns (Bytes.length data));
  if t.costs.backpressure then begin
    (* user-level path: the sender sees the send queue and waits for room
       rather than losing packets (§7.4) *)
    let iface = Ipv4.iface t.ip in
    while Iface.queue_length iface >= Iface.queue_limit iface - 1 do
      Engine.Proc.sleep (Ipv4.sim t.ip) ~time:(Engine.Sim.us 10)
    done
  end;
  let hdr = Bytes.create header_size in
  Bytes.set_uint16_be hdr 0 s.s_port;
  Bytes.set_uint16_be hdr 2 dst_port;
  Bytes.set_uint16_be hdr 4 (header_size + Bytes.length data);
  Bytes.set_uint16_be hdr 6 0;
  let view = Buf.append (Buf.of_bytes hdr) (Buf.of_bytes data) in
  if t.checksum then begin
    let c = Checksum.compute_buf view in
    (* an all-zero checksum field means "no checksum" in UDP *)
    Bytes.set_uint16_be hdr 6 (if c = 0 then 0xffff else c)
  end;
  (* sendto has copy semantics: snapshot so the caller may reuse [data]
     while the datagram sits in transmit queues — the socket-layer copy *)
  let pdu = Buf.copy ~layer:"udp_app" view in
  let cost =
    t.costs.stack_send_ns (Bytes.length data)
    + checksum_cost t (Buf.length pdu)
  in
  Ipv4.send t.ip Ipv4.Udp ~dst ~cost_ns:cost pdu

let take s =
  match Queue.take_opt s.s_queue with
  | None -> None
  | Some (src, sport, data) ->
      (match s.s_sockbuf with
      | Some sb -> Host.Kernel.Sockbuf.take sb (Buf.length data)
      | None -> ());
      Host.Cpu.charge
        (Ipv4.cpu s.s_stack.ip)
        (s.s_stack.costs.app_recv_ns (Buf.length data));
      (* the copy into the application's buffer *)
      Some (src, sport, Buf.to_bytes ~layer:"udp_app" data)

let recvfrom s =
  let rec loop () =
    match take s with
    | Some r -> r
    | None ->
        Sync.Condition.wait s.s_cond;
        loop ()
  in
  loop ()

let recvfrom_timeout s ~timeout =
  let sim = Ipv4.sim s.s_stack.ip in
  let deadline = Sim.now sim + timeout in
  let rec loop () =
    match take s with
    | Some r -> Some r
    | None ->
        if Sim.now sim >= deadline then None
        else begin
          let fired = ref false in
          Proc.suspend (fun resume ->
              let resume_once cancel =
                if not !fired then begin
                  fired := true;
                  cancel ();
                  resume ()
                end
              in
              let h =
                Sim.schedule_at ~label:"udp.timeout" sim deadline (fun () ->
                    resume_once (fun () -> ()))
              in
              ignore
                (Proc.spawn ~name:"udp-timeout" sim (fun () ->
                     Sync.Condition.wait s.s_cond;
                     resume_once (fun () -> Sim.cancel h))));
          loop ()
        end
  in
  loop ()

let pending s = Queue.length s.s_queue

let sockbuf_drops t =
  Hashtbl.fold
    (fun _ s acc ->
      acc + match s.s_sockbuf with Some sb -> Host.Kernel.Sockbuf.drops sb | None -> 0)
    t.ports 0
