(** Pre-wired protocol stacks for the paper's three IP paths:

    - {!unet_pair}: user-level UDP/TCP over a U-Net channel (§7) — low fixed
      costs, 1 ms timers, 8 KB TCP windows, no socket-buffer bound.
    - {!kernel_atm_pair}: the SunOS kernel path over the vendor ATM driver
      (Fore firmware NI) — mbuf handling, 52 KB socket buffers, 500 ms
      timers, 64 KB TCP windows, 9 KB segments.
    - {!kernel_ethernet_pair}: the same kernel path over 10 Mbit/s Ethernet. *)

type t = {
  iface : Iface.t;
  ip : Ipv4.t;
  udp : Udp.stack;
  tcp : Tcp.stack;
}

val unet_pair : ?tcp_window:int -> Unet.t -> Unet.t -> t * t
(** Both hosts must carry an SBA-200 U-Net NI. Addresses are the U-Net host
    indices. *)

val kernel_atm_pair : ?tcp_window:int -> Unet.t -> Unet.t -> t * t
(** The U-Net instances should sit on Fore-firmware NIs
    ([Cluster.Sba200_fore]) for the paper's kernel-over-ATM numbers. *)

val kernel_ethernet_pair :
  ?tcp_window:int ->
  sim:Engine.Sim.t ->
  cpu_a:Host.Cpu.t ->
  cpu_b:Host.Cpu.t ->
  addr_a:int ->
  addr_b:int ->
  unit ->
  t * t
