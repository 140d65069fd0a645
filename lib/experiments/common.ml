open Engine

(* build a scatter-gather payload of [size] bytes from an allocator *)
let payload_of_size alloc size =
  if size <= Unet.Desc.inline_max then Unet.Desc.Inline (Buf.alloc size)
  else begin
    let rec take acc got =
      if got >= size then List.rev acc
      else
        match Unet.Segment.Allocator.alloc alloc with
        | Some (off, len) -> take ((off, min len (size - got)) :: acc) (got + len)
        | None -> failwith "payload_of_size: segment exhausted"
    in
    Unet.Desc.Buffers (take [] 0)
  end

(* [bytes] moved by [at]; nan when the run never got there *)
let mb_per_s bytes at =
  let secs = Sim.to_sec at in
  if secs <= 0. then nan else float_of_int bytes /. 1e6 /. secs

(* Spawn the client, which times [iters] rounds of [round i]; run the
   simulation to [until] and return the mean round in µs (nan if no round
   completed) *)
let mean_round_us sim ~until ~iters round =
  let sum = ref 0. and n = ref 0 in
  ignore
    (Proc.spawn ~name:"client" sim (fun () ->
         for i = 1 to iters do
           let t0 = Sim.now sim in
           round i;
           sum := !sum +. Sim.to_us (Sim.now sim - t0);
           incr n
         done));
  Sim.run ~until sim;
  if !n = 0 then nan else !sum /. float_of_int !n

(* ------------------------------------------------------------------ *)

(* SBA-100 endpoints are always emulated: the board has no per-endpoint
   hardware, so the kernel multiplexes them (§4.1) *)
let raw_endpoint ?free_buffers ?rx_slots (node : Cluster.node) =
  Cluster.simple_endpoint ~emulated:(Option.is_some node.sba100) ?free_buffers
    ?rx_slots node

let raw_rtt ?(iters = 50) ?topology ?(pair = (0, 1)) ?nic ?nic_config
    ?(recv_extra_ns = 0) ?(until = Sim.sec 30) ~size () =
  let c = Cluster.create ?topology ?nic ?nic_config () in
  let h0, h1 = pair in
  let n0 = Cluster.node c h0 and n1 = Cluster.node c h1 in
  let ep0, a0 = raw_endpoint n0 in
  let ep1, a1 = raw_endpoint n1 in
  let ch0, ch1 = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  let payload = payload_of_size a0 size in
  let recv (n : Cluster.node) ep =
    let d = Unet.recv n.unet ep in
    if recv_extra_ns > 0 then Host.Cpu.charge n.cpu recv_extra_ns;
    d
  in
  ignore
    (Proc.spawn ~name:"echo" c.sim (fun () ->
         let rec loop () =
           let d = recv n1 ep1 in
           (match Unet.send n1.unet ep1 (Unet.Desc.tx ~chan:ch1 d.rx_payload) with
           | Ok () -> ()
           | Error e -> Fmt.failwith "echo: %a" Unet.pp_error e);
           Unet.release n1.unet ep1 a1 d;
           loop ()
         in
         loop ()));
  mean_round_us c.sim ~until ~iters (fun _ ->
      (match Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "client: %a" Unet.pp_error e);
      Unet.release n0.unet ep0 a0 (recv n0 ep0))

let raw_bandwidth ?(count = 1500) ?topology ?(pair = (0, 1)) ?nic
    ?(repoll = Sim.us 5) ?(until = Sim.sec 120) ~size () =
  let c = Cluster.create ?topology ?nic () in
  let h0, h1 = pair in
  let n0 = Cluster.node c h0 and n1 = Cluster.node c h1 in
  let ep0, a0 = raw_endpoint ~free_buffers:4 n0 in
  let ep1, a1 = raw_endpoint ~free_buffers:56 ~rx_slots:128 n1 in
  let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  let payload = payload_of_size a0 size in
  let received = ref 0 and done_at = ref 0 in
  ignore
    (Proc.spawn ~name:"sink" c.sim (fun () ->
         while !received < count do
           let d = Unet.recv n1.unet ep1 in
           incr received;
           Unet.release n1.unet ep1 a1 d
         done;
         done_at := Sim.now c.sim));
  ignore
    (Proc.spawn ~name:"source" c.sim (fun () ->
         let sent = ref 0 in
         while !sent < count do
           match Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload) with
           | Ok () -> incr sent
           | Error Unet.Queue_full -> Proc.sleep c.sim ~time:repoll
           | Error e -> Fmt.failwith "source: %a" Unet.pp_error e
         done));
  Sim.run ~until c.sim;
  mb_per_s (size * !received) !done_at

(* ------------------------------------------------------------------ *)

let uam_pair ?config () =
  let c = Cluster.create () in
  let a0 = Uam.create ?config (Cluster.node c 0).unet ~rank:0 ~nodes:2 in
  let a1 = Uam.create ?config (Cluster.node c 1).unet ~rank:1 ~nodes:2 in
  Uam.connect a0 a1;
  ignore
    (Proc.spawn ~name:"server" c.sim (fun () ->
         Uam.poll_until a1 (fun () -> false)));
  (c, a0, a1)

let h_echo = 1
let h_echo_reply = 2

let uam_rtt ?(iters = 50) ~size () =
  let c, a0, a1 = uam_pair () in
  let payload = Buf.alloc size in
  Uam.register_handler a1 h_echo (fun am ~src:_ tk ~args:_ ~payload ->
      match tk with
      | Some tk -> Uam.reply am tk ~handler:h_echo_reply ~payload ()
      | None -> assert false);
  let got = ref 0 in
  Uam.register_handler a0 h_echo_reply (fun _ ~src:_ _ ~args:_ ~payload:_ ->
      incr got);
  mean_round_us c.sim ~until:(Sim.sec 30) ~iters (fun i ->
      Uam.request a0 ~dst:1 ~handler:h_echo ~payload ();
      Uam.poll_until a0 (fun () -> !got >= i))

(* Block transfer round trip: store N bytes there; the last chunk's handler
   triggers an N-byte store back. Approximates the paper's UAM xfer
   ping-pong. *)
let uam_xfer_rtt ?(iters = 20) ~size () =
  let c, a0, a1 = uam_pair () in
  let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
  let region = 1 in
  Uam.Xfer.register_region x0 ~id:region (Bytes.make (max 1 size) '\000');
  Uam.Xfer.register_region x1 ~id:region (Bytes.make (max 1 size) '\000');
  let block = Bytes.make size '\000' in
  (* the server echoes each "ping" notification *)
  let h_ping = 3 and h_pong = 4 in
  let pongs = ref 0 in
  Uam.register_handler a1 h_ping (fun _ ~src:_ _ ~args:_ ~payload:_ ->
      Uam.Xfer.store x1 ~dst:0 ~region ~offset:0 block;
      Uam.request a1 ~dst:0 ~handler:h_pong ());
  Uam.register_handler a0 h_pong (fun _ ~src:_ _ ~args:_ ~payload:_ ->
      incr pongs);
  mean_round_us c.sim ~until:(Sim.sec 30) ~iters (fun i ->
      Uam.Xfer.store x0 ~dst:1 ~region ~offset:0 block;
      Uam.request a0 ~dst:1 ~handler:h_ping ();
      Uam.poll_until a0 (fun () -> !pongs >= i))

let uam_store_bandwidth ?(count = 400) ?config ~size () =
  let c, a0, a1 = uam_pair ?config () in
  let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
  Uam.Xfer.register_region x1 ~id:1 (Bytes.make (max size 8192) '\000');
  let block = Bytes.make size '\000' in
  let t_done = ref 0 in
  ignore
    (Proc.spawn ~name:"client" c.sim (fun () ->
         for _ = 1 to count do
           Uam.Xfer.store x0 ~dst:1 ~region:1 ~offset:0 block
         done;
         Uam.Xfer.quiet x0;
         t_done := Sim.now c.sim));
  Sim.run ~until:(Sim.sec 120) c.sim;
  mb_per_s (size * count) !t_done

let uam_get_bandwidth ?(count = 400) ~size () =
  let c, a0, a1 = uam_pair () in
  let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
  ignore x0;
  Uam.Xfer.register_region x1 ~id:1 (Bytes.make (max size 8192) '\000');
  let t_done = ref 0 in
  ignore
    (Proc.spawn ~name:"client" c.sim (fun () ->
         (* the paper's block-get test keeps a series of requests
            outstanding; a depth of 4 is enough to cover the round trip *)
         let depth = 4 in
         let q = Queue.create () in
         for _ = 1 to count do
           Queue.add (Uam.Xfer.get_async x0 ~dst:1 ~region:1 ~offset:0 ~len:size) q;
           if Queue.length q >= depth then
             ignore (Uam.Xfer.await x0 (Queue.pop q))
         done;
         Queue.iter (fun h -> ignore (Uam.Xfer.await x0 h)) q;
         t_done := Sim.now c.sim));
  Sim.run ~until:(Sim.sec 120) c.sim;
  mb_per_s (size * count) !t_done

(* ------------------------------------------------------------------ *)

type ip_path = Unet_path | Kernel_atm | Kernel_ethernet

let pp_ip_path fmt = function
  | Unet_path -> Format.pp_print_string fmt "U-Net"
  | Kernel_atm -> Format.pp_print_string fmt "kernel/ATM"
  | Kernel_ethernet -> Format.pp_print_string fmt "kernel/Ethernet"

let make_suites ?tcp_window path =
  match path with
  | Unet_path ->
      let c = Cluster.create () in
      let a, b =
        Ipstack.Suite.unet_pair ?tcp_window (Cluster.node c 0).unet
          (Cluster.node c 1).unet
      in
      (c.sim, a, b)
  | Kernel_atm ->
      let c = Cluster.create ~nic:Cluster.Sba200_fore () in
      let a, b =
        Ipstack.Suite.kernel_atm_pair ?tcp_window (Cluster.node c 0).unet
          (Cluster.node c 1).unet
      in
      (c.sim, a, b)
  | Kernel_ethernet ->
      let sim = Sim.create () in
      let cpu_a = Host.Cpu.create ~host:0 sim Host.Machine.ss20 in
      let cpu_b = Host.Cpu.create ~host:1 sim Host.Machine.ss20 in
      let a, b =
        Ipstack.Suite.kernel_ethernet_pair ?tcp_window ~sim ~cpu_a ~cpu_b
          ~addr_a:0 ~addr_b:1 ()
      in
      (sim, a, b)

let udp_rtt ?(iters = 30) ~path ~size () =
  let open Ipstack in
  let sim, sa, sb = make_suites path in
  let sock_a = Udp.socket sa.Suite.udp ~port:1000 in
  let sock_b = Udp.socket sb.Suite.udp ~port:2000 in
  ignore
    (Proc.spawn ~name:"udp-echo" sim (fun () ->
         let rec loop () =
           let src, sport, data = Udp.recvfrom sock_b in
           Udp.sendto sock_b ~dst:src ~dst_port:sport data;
           loop ()
         in
         loop ()));
  let sum = ref 0. and n = ref 0 in
  ignore
    (Proc.spawn ~name:"udp-client" sim (fun () ->
         let payload = Bytes.make size '\000' in
         for _ = 1 to iters do
           let t0 = Sim.now sim in
           Udp.sendto sock_a ~dst:1 ~dst_port:2000 payload;
           match Udp.recvfrom_timeout sock_a ~timeout:(Sim.sec 2) with
           | Some _ ->
               sum := !sum +. Sim.to_us (Sim.now sim - t0);
               incr n
           | None -> ()
         done));
  Sim.run ~until:(Sim.sec 120) sim;
  if !n = 0 then nan else !sum /. float_of_int !n

let udp_blast ?(count = 400) ~path ~size () =
  let open Ipstack in
  let sim, sa, sb = make_suites path in
  let sock_a = Udp.socket sa.Suite.udp ~port:1000 in
  let sock_b = Udp.socket sb.Suite.udp ~port:2000 in
  let send_done = ref 0 in
  let received = ref 0 in
  let last_rx = ref 0 in
  ignore
    (Proc.spawn ~name:"udp-sink" sim (fun () ->
         let rec loop () =
           let _ = Udp.recvfrom sock_b in
           incr received;
           last_rx := Sim.now sim;
           loop ()
         in
         loop ()));
  ignore
    (Proc.spawn ~name:"udp-blaster" sim (fun () ->
         let payload = Bytes.make size '\000' in
         for _ = 1 to count do
           Udp.sendto sock_a ~dst:1 ~dst_port:2000 payload
         done;
         send_done := Sim.now sim));
  Sim.run ~until:(Sim.sec 120) sim;
  let recv_secs = Sim.to_sec !last_rx in
  let sent_mb = mb_per_s (size * count) !send_done in
  let recv_mb =
    if recv_secs <= 0. then 0.
    else float_of_int (size * !received) /. 1e6 /. recv_secs
  in
  (sent_mb, recv_mb)

(* ------------------------------------------------------------------ *)

type tcp_bed = {
  sim : Sim.t;
  client : Ipstack.Tcp.stack;
  server : Ipstack.Tcp.stack;
  server_addr : int;
}

let tcp_bed ?window path =
  let sim, a, b = make_suites ?tcp_window:window path in
  { sim; client = a.tcp; server = b.tcp; server_addr = 1 }

let tcp_pair ?mtu (c : Cluster.t) (a, b) cfg =
  let open Ipstack in
  let ifa, ifb =
    Iface.unet_pair ?mtu (Cluster.node c a).unet (Cluster.node c b).unet
  in
  let client = Tcp.attach (Ipv4.attach ifa ~addr:a) cfg in
  let server = Tcp.attach (Ipv4.attach ifb ~addr:b) cfg in
  { sim = c.sim; client; server; server_addr = b }

let tcp_rtt ?(iters = 30) ?(until = Sim.sec 120) ~size bed =
  let open Ipstack in
  let sim = bed.sim in
  let listener = Tcp.listen bed.server ~port:80 in
  ignore
    (Proc.spawn ~name:"tcp-echo" sim (fun () ->
         let conn = Tcp.accept listener in
         try
           let rec loop () =
             let data = Tcp.recv_exact conn ~len:size in
             Tcp.send conn data;
             loop ()
           in
           loop ()
         with End_of_file -> ()));
  let sum = ref 0. and n = ref 0 in
  ignore
    (Proc.spawn ~name:"tcp-client" sim (fun () ->
         let conn =
           Tcp.connect bed.client ~dst:bed.server_addr ~dst_port:80 ()
         in
         let payload = Bytes.make size '\000' in
         for _ = 1 to iters do
           let t0 = Sim.now sim in
           Tcp.send conn payload;
           ignore (Tcp.recv_exact conn ~len:size);
           sum := !sum +. Sim.to_us (Sim.now sim - t0);
           incr n
         done;
         Tcp.close conn));
  Sim.run ~until sim;
  if !n = 0 then nan else !sum /. float_of_int !n

type tcp_flow = {
  mutable received : int;
  mutable intact : bool;
  mutable finished_at : Sim.time;
  mutable source : Ipstack.Tcp.t option;
}

let tcp_flow ?(port = 80) ?app_rate_mb bed data =
  let open Ipstack in
  let sim = bed.sim and total = Bytes.length data in
  let f = { received = 0; intact = true; finished_at = 0; source = None } in
  let listener = Tcp.listen bed.server ~port in
  ignore
    (Proc.spawn ~name:"tcp-sink" sim (fun () ->
         let conn = Tcp.accept listener in
         let rec loop () =
           let chunk = Tcp.recv conn ~max:65536 in
           let len = Bytes.length chunk and pos = f.received in
           if len > 0 then begin
             f.intact <-
               f.intact && pos + len <= total
               && Bytes.equal chunk (Bytes.sub data pos len);
             f.received <- pos + len;
             loop ()
           end
         in
         loop ();
         f.finished_at <- Sim.now sim));
  ignore
    (Proc.spawn ~name:"tcp-source" sim (fun () ->
         let conn =
           Tcp.connect bed.client ~dst:bed.server_addr ~dst_port:port ()
         in
         f.source <- Some conn;
         let chunk = 8192 in
         let interval =
           match app_rate_mb with
           | None -> 0
           | Some mb ->
               int_of_float (Float.round (float_of_int chunk *. 1_000. /. mb))
         in
         let sent = ref 0 in
         let next = ref (Sim.now sim) in
         while !sent < total do
           if interval > 0 then begin
             let now = Sim.now sim in
             if now < !next then Proc.sleep sim ~time:(!next - now);
             next := !next + interval
           end;
           let len = min chunk (total - !sent) in
           Tcp.send conn (Bytes.sub data !sent len);
           sent := !sent + len
         done;
         Tcp.close conn));
  f

let tcp_retransmits f =
  Option.fold ~none:0 ~some:Ipstack.Tcp.retransmits f.source

let tcp_goodput f = mb_per_s f.received f.finished_at

let tcp_stream ?(until = Sim.sec 300) ?(total = 4 * 1024 * 1024) ?app_rate_mb
    bed =
  let f = tcp_flow ?app_rate_mb bed (Bytes.make total '\000') in
  Sim.run ~until bed.sim;
  tcp_goodput f

(* ------------------------------------------------------------------ *)

let print_series series =
  List.iter (fun s -> Format.printf "%a@." Stats.Series.pp s) series

let print_table ~header ~rows =
  let widths =
    List.fold_left
      (fun acc row ->
        List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    List.iter2 (fun w cell -> Format.printf "%-*s  " w cell) widths row;
    Format.printf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let sweep sizes f = List.map (fun s -> (float_of_int s, f s)) sizes
