(** Cluster fabric: workstations connected to ATM switches by full-duplex
    fiber pairs. The default shape mirrors the paper's 8-node ASX-200
    testbed — every host on one port of a single switch — but a
    declarative {!topology} spec also elaborates multi-stage fabrics
    (folded-Clos fat-trees, arbitrary trunk graphs) from the same switch
    and link elements, with per-hop VCI remapping through each stage's
    route table (DESIGN.md §16). Also plays the role of the
    network-specific signalling service: {!connect} performs route
    discovery and switch-path setup across all stages, returning the VCI
    pair each side must use (§3.2). *)

type config = {
  link_bandwidth_mbps : float;  (** 140 Mbit/s TAXI in the paper *)
  link_propagation : Engine.Sim.time;  (** per-fiber time of flight *)
  switch_transit : Engine.Sim.time;  (** fabric delay per cell *)
  switch_queue_capacity : int;  (** output-port queue, in cells *)
  host_tx_fifo : int;  (** NI output FIFO depth, in cells *)
}

val default_config : config
(** The paper's testbed: 140 Mbit/s links, 2 µs switch transit, shallow
    host FIFOs. *)

(** Dimensions of a two-level folded-Clos (fat-tree) fabric: [pods] leaf
    switches each attaching [hosts_per_pod] hosts, every leaf trunked to
    each of [spine] spine switches by one full-duplex fiber pair. Host [h]
    sits on port [h mod hosts_per_pod] of leaf [h / hosts_per_pod]. *)
type clos = { pods : int; spine : int; hosts_per_pod : int }

(** Declarative fabric shape, elaborated by {!create_topo} into switches,
    access links and trunks. *)
type topology =
  | Single of int
      (** [hosts] workstations on one switch — the paper's testbed and the
          historical constructor; behaviour, metric labels and event
          schedules are byte-identical to pre-topology versions. *)
  | Clos of clos
  | Custom of {
      switch_ports : int array;  (** port count per switch *)
      hosts : (int * int) array;  (** host [h] at [(switch, port)] *)
      trunks : (int * int * int * int) list;
          (** full-duplex [(sw_a, port_a, sw_b, port_b)] fiber pairs *)
    }

val topology_hosts : topology -> int
(** Number of host endpoints the topology attaches. *)

type t

val create : Engine.Sim.t -> hosts:int -> config -> t
(** [create_topo] with [Single hosts]. If a global fault spec is
    configured ({!Engine.Fault.configure}), its link and switch sites are
    applied to the new fabric automatically. *)

val create_topo : Engine.Sim.t -> topology:topology -> config -> t
(** Elaborate a topology: one {!Switch.t} per stage (labelled with its
    index when there is more than one), host access links, and a
    full-duplex pair of trunk links per fabric fiber. All links share
    [config]'s bandwidth and propagation; all switches its transit and
    queue capacity. Raises [Invalid_argument] for malformed specs
    (out-of-range indices, a port attached twice, non-positive
    dimensions). *)

val sim : t -> Engine.Sim.t
val host_count : t -> int

val topology : t -> topology
(** The spec this fabric was elaborated from. *)

val apply_fault : t -> Engine.Fault.spec -> unit
(** Instantiate the spec's link/switch sites on this fabric: one injector
    per uplink ([link.up.<host>]), downlink ([link.down.<host>]), and
    switch output port — [switch.port.<port>] on a single-switch fabric
    (the historical site labels, so seeded streams are unchanged),
    [switch.<stage>.port.<port>] per stage otherwise. Every output port of
    every stage gets a site, trunk ports included, so interior fabric
    faults need no separate site kind. NI sites are handled by the NI
    constructors. *)

val attach_rx : t -> host:int -> (Cell.t -> unit) -> unit
(** Install the host NI's cell-receive handler (downlink receiver). Cells
    reaching a downlink with no handler are counted in the per-host
    [atm_fabric_undeliverable_total] metric and their span marked
    [Dropped] rather than vanishing silently. *)

val send : t -> host:int -> Cell.t -> bool
(** Transmit a cell on the host's uplink. [false] if the NI output FIFO
    overflowed. *)

val uplink : t -> host:int -> Link.t
val downlink : t -> host:int -> Link.t

val switch : t -> Switch.t
(** The first (on a [Single] fabric, only) switch; kept for single-switch
    callers. Multi-stage fabrics use {!switch_at}. *)

val switch_count : t -> int

val switch_at : t -> int -> Switch.t
(** Stage [i] of the fabric, in topology order (Clos: leaves then
    spines). *)

val host_switch : t -> host:int -> int
(** Index of the switch the host's access links attach to. *)

(** {2 Flow observability (DESIGN.md §17)} *)

val flowstat : t -> Flowstat.t option
(** This fabric's flow-accounting instance — present when
    {!Flowstat.configure} was active at creation. Routes installed by
    {!connect} register one flow per direction; per-cell forwarding and
    train commits count into it. When path records are additionally
    enabled ({!Engine.Pathrec.start}), every delivered PDU also leaves an
    INT-style per-hop record, identically whether it rode the per-cell
    path or a committed train. *)

val note_retx : t -> host:int -> vci:int -> unit
(** Attribute one PDU retransmission to the flow sending from [host] on
    uplink [vci] (called by the reliability layer). No-op when flow
    accounting is off or the flow is unknown. *)

val output_link : t -> sw:int -> port:int -> Link.t option
(** The link attached to switch [sw]'s output [port] — a host downlink or
    a directed trunk; [None] for unwired ports. For utilization readers
    (the congestion atlas). *)

val port_dest : t -> sw:int -> port:int -> [ `Host of int | `Switch of int ] option
(** Where that output port's link leads. *)

(** {2 Train fast path (DESIGN.md §14, multi-stage §16)} *)

val attach_rx_train :
  t ->
  host:int ->
  (Cell.train -> rx_vci:int -> deliveries:Engine.Sim.time array -> unit) ->
  unit
(** Install a train-aware receive handler: committed trains destined to
    [host] are handed over whole at the first cell's delivery instant,
    with [deliveries.(i)] the instant cell i would have arrived per-cell
    (cells still carry the sender-side VCI; [rx_vci] is the egress
    stage's relabel). Hosts without one get the default per-cell
    expansion into their {!attach_rx} handler. *)

val commit_train :
  t ->
  host:int ->
  train:Cell.train ->
  first_attempt:Engine.Sim.time ->
  gap:Engine.Sim.time ->
  on_interfere:(unit -> unit) ->
  Engine.Sim.time array option
(** Plan a whole train's journey — uplink chain (cell 0's attempt at
    [first_attempt], then [gap] after each acceptance, retrying refused
    attempts every cell slot), then per stage of the route a fabric
    transit and an arrival-fed plan on that stage's output link (trunk or
    downlink) — all-or-nothing across the full hop chain. [Some accepts]
    gives each cell's uplink acceptance instant, the schedule the sending
    NI's chain batch must reproduce; [None] means some element refused
    (legacy traffic in flight at any stage, a loss/fault site, a full
    queue, a same-instant tie) and the sender must use the per-cell path.
    [on_interfere] is installed as the uplink's interfere hook; the
    caller owns clearing it when its chain ends or splits. *)

(** The transmit/receive VCI pair naming a one-way-per-direction duplex
    channel, as handed to an endpoint at channel registration. *)
type duplex = { tx_vci : int; rx_vci : int }

type conn = { host_a : int; host_b : int; side_a : duplex; side_b : duplex }
(** A full-duplex connection: [side_a.tx_vci] is the VCI host [a] transmits
    on; those cells arrive at host [b] relabelled as [side_b.rx_vci], and
    symmetrically. *)

val connect : t -> a:int -> b:int -> conn
(** Set up a full-duplex connection between hosts [a] and [b]: route
    discovery across the fabric (Clos routes pick the spine
    deterministically from the endpoint pair; Custom topologies
    breadth-first-search the trunk graph), per-hop VCI allocation — a
    fresh VCI on the sender's uplink, on each trunk of the route, and on
    the receiver's downlink — and route-table setup at every stage.
    VCIs are 16-bit as in the ATM cell header; allocation past 65535
    raises [Invalid_argument] instead of silently aliasing. *)

val disconnect : t -> conn -> unit
(** Tear down both routes of a connection, removing each stage's
    route-table entry. *)
