type t = {
  iface : Iface.t;
  ip : Ipv4.t;
  udp : Udp.stack;
  tcp : Tcp.stack;
}

let build ~iface ~addr ~udp_attach ~tcp_cfg =
  let ip = Ipv4.attach iface ~addr in
  let udp = udp_attach ip in
  let tcp = Tcp.attach ip tcp_cfg in
  { iface; ip; udp; tcp }

let unet_pair ?(tcp_window = 8 * 1024) ua ub =
  let ifa, ifb = Iface.unet_pair ~mtu:9_000 ua ub in
  let mk iface addr =
    build ~iface ~addr
      ~udp_attach:(fun ip ->
        Udp.attach ~checksum:true ~costs:Udp.unet_costs ip)
      ~tcp_cfg:(Tcp.unet_config ~window:tcp_window ())
  in
  (mk ifa (Unet.host ua), mk ifb (Unet.host ub))

let kernel_atm_pair ?(tcp_window = 64 * 1024) ua ub =
  (* The vendor ATM driver fights the generic BSD buffer strategies (§7.2):
     its per-packet driver cost far exceeds the mature Ethernet driver's,
     which is what makes small-message latency over ATM *worse* than over
     Ethernet in Figure 6. *)
  let kcfg =
    {
      Host.Kernel.sunos with
      driver_ns = Host.Kernel.sunos.Host.Kernel.driver_ns + 50_000;
    }
  in
  let ifa, ifb = Iface.unet_pair ~mtu:9_188 ~encapsulation:true ua ub in
  let mk iface addr =
    build ~iface ~addr
      ~udp_attach:(fun ip ->
        Udp.attach ~checksum:true ~sockbuf_limit:kcfg.Host.Kernel.sockbuf_limit
          ~costs:(Udp.kernel_costs kcfg) ip)
      ~tcp_cfg:(Tcp.kernel_config ~window:tcp_window ~mss:9_148 kcfg)
  in
  (mk ifa (Unet.host ua), mk ifb (Unet.host ub))

let kernel_ethernet_pair ?(tcp_window = 64 * 1024) ~sim ~cpu_a ~cpu_b ~addr_a
    ~addr_b () =
  let kcfg = Host.Kernel.sunos in
  (* 10 Mbit/s Ethernet with a ~100 µs per-frame driver+interrupt cost and
     LAN propagation; frames beyond 1514 bytes fragment in the driver. *)
  let ifa, ifb =
    Iface.framed_pair ~sim ~cpu_a ~cpu_b ~bandwidth_mbps:10. ~wire_mtu:1_514
      ~per_frame_ns:100_000 ~propagation:(Engine.Sim.us 10) ~ip_mtu:9_000 ()
  in
  let mk iface addr =
    build ~iface ~addr
      ~udp_attach:(fun ip ->
        Udp.attach ~checksum:true ~sockbuf_limit:kcfg.Host.Kernel.sockbuf_limit
          ~costs:(Udp.kernel_costs kcfg) ip)
      ~tcp_cfg:(Tcp.kernel_config ~window:tcp_window ~mss:1_460 kcfg)
  in
  (mk ifa addr_a, mk ifb addr_b)
