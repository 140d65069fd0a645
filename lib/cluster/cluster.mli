(** Convenience constructors for the paper's testbed: [n] workstations with
    a chosen NI model around one ATM switch, each with a U-Net instance. *)

type nic_kind =
  | Sba200_unet  (** custom U-Net firmware (§4.2.2) — the system under test *)
  | Sba200_fore  (** Fore's original firmware (§4.2.1) — baseline *)
  | Sba100  (** PIO interface, kernel-emulated endpoints (§4.1) *)

type node = {
  host : int;
  cpu : Host.Cpu.t;
  unet : Unet.t;
  i960 : Ni.I960_nic.t option;  (** present for SBA-200 variants *)
  sba100 : Ni.Sba100.t option;
}

type t = {
  sim : Engine.Sim.t;
  net : Atm.Network.t;
  nodes : node array;
}

val set_default_topology : Atm.Network.topology option -> unit
(** Override the shape {!create} builds when the caller passes no explicit
    [?topology] — the hook behind [unetsim --topology], so fabric runs
    don't require the experiments harness. Callers that do pass
    [?topology] are unaffected. *)

val create :
  ?hosts:int ->
  ?topology:Atm.Network.topology ->
  ?net_config:Atm.Network.config ->
  ?machine:Host.Machine.t ->
  ?nic:nic_kind ->
  ?nic_config:Ni.I960_nic.config ->
  unit ->
  t
(** Defaults: 2 hosts, the paper's network parameters, SS-20s, U-Net
    firmware. The paper's full cluster is [~hosts:8]. [topology] builds a
    multi-stage fabric instead (DESIGN.md §16) and wins over [hosts] —
    the node count becomes {!Atm.Network.topology_hosts}. [nic_config]
    overrides the i960 firmware parameters (for ablations); it applies to
    the SBA-200 variants only. *)

val node : t -> int -> node

val simple_endpoint :
  ?emulated:bool ->
  ?direct_access:bool ->
  ?seg_size:int ->
  ?rx_slots:int ->
  ?free_buffers:int ->
  ?buffer_size:int ->
  node ->
  Unet.Endpoint.t * Unet.Segment.Allocator.t
(** {!Unet.open_endpoint} with [buffer_size]-byte blocks (default 4160),
    [free_buffers] of them (default 32) posted to the free queue. The
    remaining blocks are for the application's send buffers. *)
