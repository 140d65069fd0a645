(** Host processor time accounting. Processing overhead — the paper's central
    quantity — is modelled by blocking the calling process for the cost of
    the operation, scaled to this machine's clock. *)

type t

val create : ?host:int -> Engine.Sim.t -> Machine.t -> t
(** [host] identifies the simulated host this CPU belongs to (default 0);
    it keys the per-host stacks of [Engine.Profile]. *)

val machine : t -> Machine.t
val sim : t -> Engine.Sim.t
val host : t -> int

val charge : ?layer:string -> t -> Engine.Sim.time -> unit
(** Block the calling process for a reference-machine cost scaled to this
    CPU's clock, and account it as busy time. [layer] attributes the cost
    in the [host_cpu_busy_ns_total] registry family and names the [Cpu]
    trace span (default ["other"]). *)

val charge_us : ?layer:string -> t -> float -> unit

val charge_cycles : ?layer:string -> t -> int -> unit
(** Cost expressed in this machine's own cycles (for real computation, e.g.
    a sort's local phase). *)

val copy_cost : t -> bytes:int -> Engine.Sim.time
(** Cost of a memory copy of [bytes] on this machine, without charging it. *)

val charge_copy : ?layer:string -> t -> bytes:int -> unit
(** Defaults to layer ["copy"]. *)

val busy_time : t -> Engine.Sim.time
(** Total time this CPU has spent in charged work. *)
