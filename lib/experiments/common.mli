(** Measurement primitives shared by the table/figure reproductions: raw
    U-Net ping-pongs and streaming, UAM round trips and block transfers, and
    UDP/TCP latency/throughput over each of the three IP paths. One driver
    serves each traffic shape, and every run uses a fresh simulated cluster
    (the TCP drivers get theirs as a {!tcp_bed}), so experiments are
    independent and deterministic. *)

(** {2 Measuring} *)

val mean_round_us :
  Engine.Sim.t -> until:Engine.Sim.time -> iters:int -> (int -> unit) -> float
(** [mean_round_us sim ~until ~iters round] spawns a client that runs
    [round i] for [i] = 1..[iters], runs [sim] to [until], and returns the
    mean round in µs (nan if no round completed). *)

val mb_per_s : int -> Engine.Sim.time -> float
(** [mb_per_s bytes at]: [bytes] moved in the first [at] of simulated time,
    in MB/s; nan when [at] is zero (the run never finished). *)

(** {2 Raw base-level U-Net (§4.2.3)} *)

val payload_of_size : Unet.Segment.Allocator.t -> int -> Unet.Desc.payload
(** Inline for small sizes, a scatter-gather buffer list otherwise. *)

val raw_rtt :
  ?iters:int ->
  ?topology:Atm.Network.topology ->
  ?pair:int * int ->
  ?nic:Cluster.nic_kind ->
  ?nic_config:Ni.I960_nic.config ->
  ?recv_extra_ns:int ->
  ?until:Engine.Sim.time ->
  size:int ->
  unit ->
  float
(** Mean round-trip time in µs of a [size]-byte message over raw endpoints
    (single-cell fast path applies below 41 bytes). [topology] swaps the
    default 2-host single-switch cluster for a multi-stage fabric and
    [pair] picks the two endpoint hosts (default [(0, 1)]). [nic] and
    [nic_config] pick the network interface as {!Cluster.create} does;
    SBA-100 endpoints are emulated. Each receive charges its host
    [recv_extra_ns] more (a signal, say). The run stops at [until]
    (default 30 s). *)

val raw_bandwidth :
  ?count:int ->
  ?topology:Atm.Network.topology ->
  ?pair:int * int ->
  ?nic:Cluster.nic_kind ->
  ?repoll:Engine.Sim.time ->
  ?until:Engine.Sim.time ->
  size:int ->
  unit ->
  float
(** Streaming bandwidth in MB/s for back-to-back [size]-byte messages,
    with the same [topology]/[pair]/[nic] knobs as {!raw_rtt}. A sender
    that finds its send queue full sleeps [repoll] (default 5 µs) and
    retries; the run stops at [until] (default 120 s). *)

(** {2 U-Net Active Messages (§5.2)} *)

val uam_pair : ?config:Uam.config -> unit -> Cluster.t * Uam.t * Uam.t
(** A connected two-node UAM cluster on SBA-200 U-Net NIs; rank 1 serves
    requests until the run ends. *)

val uam_rtt : ?iters:int -> size:int -> unit -> float
(** Single-message request/reply round trip (µs); single-cell when
    [size] <= 34. *)

val uam_xfer_rtt : ?iters:int -> size:int -> unit -> float
(** Block-transfer round trip (µs): an N-byte transfer each way. *)

val uam_store_bandwidth :
  ?count:int -> ?config:Uam.config -> size:int -> unit -> float
(** Block store streaming bandwidth (MB/s). *)

val uam_get_bandwidth : ?count:int -> size:int -> unit -> float

(** {2 IP paths (§7)} *)

type ip_path = Unet_path | Kernel_atm | Kernel_ethernet

val pp_ip_path : Format.formatter -> ip_path -> unit

val make_suites :
  ?tcp_window:int -> ip_path -> Engine.Sim.t * Ipstack.Suite.t * Ipstack.Suite.t
(** A fresh two-host testbed with the full UDP/TCP stacks of the given
    path. *)

val udp_rtt : ?iters:int -> path:ip_path -> size:int -> unit -> float

val udp_blast :
  ?count:int -> path:ip_path -> size:int -> unit -> float * float
(** Blast [count] datagrams: (sender-perceived MB/s, receiver MB/s). The
    kernel path loses packets to device-queue and socket-buffer overflow;
    U-Net applies back-pressure and loses none. *)

(** {2 TCP} *)

(** Two TCP stacks in one simulation: the client's connections go to the
    server at [server_addr]. *)
type tcp_bed = {
  sim : Engine.Sim.t;
  client : Ipstack.Tcp.stack;
  server : Ipstack.Tcp.stack;
  server_addr : int;
}

val tcp_bed : ?window:int -> ip_path -> tcp_bed
(** The TCP stacks of a fresh {!make_suites} testbed. *)

val tcp_pair :
  ?mtu:int -> Cluster.t -> int * int -> Ipstack.Tcp.config -> tcp_bed
(** [tcp_pair c (a, b) cfg]: bare IPv4+TCP stacks configured by [cfg] on an
    U-Net IP interface pair (of [mtu], default 9000) from host [a] to host
    [b] of [c]. No UDP is attached. *)

val tcp_rtt :
  ?iters:int -> ?until:Engine.Sim.time -> size:int -> tcp_bed -> float
(** Mean echo round trip (µs) of [size]-byte writes over one connection;
    the run stops at [until] (default 120 s). *)

(** A bulk flow's outcome, filled in as the simulation runs. *)
type tcp_flow = {
  mutable received : int;  (** bytes the sink read *)
  mutable intact : bool;  (** every byte read matched the payload *)
  mutable finished_at : Engine.Sim.time;
      (** when the sink read end of stream; 0 until then *)
  mutable source : Ipstack.Tcp.t option;
      (** the source's connection, once it has connected *)
}

val tcp_flow :
  ?port:int -> ?app_rate_mb:float -> tcp_bed -> Bytes.t -> tcp_flow
(** Spawn a sink listening on [port] (default 80) of the server and a source
    that connects from the client and writes the payload in 8 KB sends,
    paced to [app_rate_mb] (unlimited when omitted), then closes. The
    caller runs the simulation. *)

val tcp_retransmits : tcp_flow -> int
(** The source's retransmissions so far: read after the run, this counts
    those of the last window, which come after the source has closed. *)

val tcp_goodput : tcp_flow -> float
(** Bytes read over the time to end of stream, in MB/s. *)

val tcp_stream :
  ?until:Engine.Sim.time ->
  ?total:int ->
  ?app_rate_mb:float ->
  tcp_bed ->
  float
(** One {!tcp_flow} of [total] zero bytes (default 4 MB), run to [until]
    (default 300 s). Returns its goodput in MB/s. *)

(** {2 Output helpers} *)

val print_series : Engine.Stats.Series.t list -> unit

val print_table :
  header:string list -> rows:string list list -> unit

val sweep : int list -> (int -> 'a) -> (float * 'a) list
(** Apply a measurement at each size, pairing with the size as float. *)
