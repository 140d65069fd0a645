(** An output-buffered ATM switch in the style of the Fore ASX-200: cells
    entering a port are routed on (input port, VCI), optionally relabelled,
    delayed by the fabric transit time, and queued on the output port's link.
    Cells with no route, or arriving to a full output queue, are dropped and
    counted. *)

type t

val create :
  Engine.Sim.t ->
  ports:int ->
  transit:Engine.Sim.time ->
  ?output_queue_capacity:int ->
  ?id:int ->
  unit ->
  t
(** [id] names this switch as one stage of a multi-switch fabric: per-port
    metric labels gain a [("switch", id)] dimension and the
    flight-recorder snapshot becomes [atm.switch.<id>], so stages never
    alias. Omit it for a single-switch network — the historical label set
    and snapshot name are kept byte-identical. *)

val attach_output : t -> port:int -> Link.t -> unit
(** Connect the outgoing link of a port. *)

val set_fault : t -> port:int -> Engine.Fault.t -> unit
(** Attach a fault injector to an output port: cells routed to it are
    additionally dropped per {!Engine.Fault.drops}, sharing the
    queue-overflow drop path (same counters, trace event, and [Dropped]
    span mark). *)

val add_route :
  ?observe:(Cell.t -> queue:int -> forwarded:bool -> unit) ->
  t ->
  in_port:int ->
  in_vci:int ->
  out_port:int ->
  out_vci:int ->
  unit
(** Raises if the (in_port, in_vci) pair is already routed. [observe]
    rides the route entry (flow accounting and path records, DESIGN.md
    §17): it sees every cell the route carries at its forwarding instant
    (arrival + transit), before the header rewrite, with the output-queue
    depth found at arrival and whether the cell made it onto the link
    ([false]: dropped at a full queue or by a port fault). Only the
    per-cell path calls it; committed trains are accounted analytically
    at commit time by the network. Unroutable cells meet no route and no
    observer. *)

val remove_route : t -> in_port:int -> in_vci:int -> unit

val input : t -> port:int -> Cell.t -> unit
(** Deliver a cell into the switch (wired as the receiver of the host-side
    uplink). *)

val set_on_settled : t -> (in_port:int -> unit) -> unit
(** Called each time a real cell that entered on [in_port] leaves the
    fabric — forwarded onto its output link, dropped at the output queue,
    or unroutable. Backs the network's in-flight gate (DESIGN.md §14): a
    train may only be planned once every earlier per-cell send has reached
    its destination link, so planned downstream entries can never be
    overtaken by a cell still crossing the fabric. *)

val cells_routed : t -> int
val cells_dropped : t -> int
val unroutable : t -> int

val port_drops : t -> port:int -> int
(** Cells dropped at output [port] (full queue or port fault). *)

val queue_peak : t -> port:int -> float
(** Deepest the output queue has been at a cell's arrival, dropped cells
    included — the [atm_switch_queue_peak] near-miss gauge: a queue
    pinned at capacity shows here even when [port_queue_high_water]
    stopped rising because every further arrival was dropped. *)

val transit : t -> Engine.Sim.time
val output_queue_capacity : t -> int

val ports : t -> int
(** Number of ports this switch was created with — the bound for per-port
    operations like fault attachment (ports need not equal the number of
    hosts once the switch is a fabric stage). *)

(** {2 Train fast path (DESIGN.md §14)} *)

type srecord
(** Planned forwarding of one committed train through an output port; the
    routed counter and port high-water fold lazily from it. *)

val plan_route :
  t -> in_port:int -> in_vci:int -> (int * int * Link.t) option
(** [(out_port, out_vci, link)] if a whole train may be planned through:
    route present, output link attached, no port fault, and no other input
    port routes to the output (single source keeps downstream FIFO order
    equal to arrival order). O(1): the switch keeps, per output port, the
    number of routes from each input port. *)

val commit_plan :
  t -> out_port:int -> times:Engine.Sim.time array -> hw:float array -> srecord
(** Install a planned forwarding: cell i leaves at [times.(i)] with the
    output queue [hw.(i)] deep after the send. Earlier records are first
    folded up to now and the finished ones retired, so the records held
    stay bounded by the trains still crossing the switch. *)

val pending_records : t -> int
(** Committed records not yet retired. Read-only: does not fold. *)

val truncate_plan : t -> srecord -> keep:int -> unit
(** The owning train was cut to [keep] cells; the rest never arrive. *)
