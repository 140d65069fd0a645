(** A unidirectional fiber: serializes cells at the link bandwidth, delivers
    each to the receiver after the propagation delay. Cells queue FIFO while
    the transmitter is busy; a finite queue capacity models an output FIFO
    and overflowing cells are dropped (and counted). An optional fault
    injector drops, corrupts, duplicates or delays cells for
    failure-injection experiments. *)

type t

val create :
  Engine.Sim.t ->
  ?queue_capacity:int ->
  (* cells; default: effectively unbounded *)
  ?metrics_labels:(string * string) list ->
  (* labels for the atm_link registry families; default: none *)
  bandwidth_mbps:float ->
  propagation:Engine.Sim.time ->
  unit ->
  t

val set_receiver : t -> (Cell.t -> unit) -> unit
(** The delivery callback at the far end. Must be set before traffic flows. *)

val set_fault : t -> Engine.Fault.t -> unit
(** Attach a fault injector: each delivered cell is passed through
    {!Engine.Fault.decide} and may be dropped, corrupted (one payload
    byte flipped in a fresh copy), duplicated, or held back a few cell
    slots. Dropped and corrupted cells get a [Dropped] span mark /
    "fault" pcapng tap respectively. *)

val send : t -> Cell.t -> bool
(** Enqueue a cell for transmission. Returns [false] if it was dropped
    because the transmit queue was full. Raises [Invalid_argument] if no
    receiver is attached (mis-wired topology, caught at the first send
    rather than mid-flight). *)

val cell_time : t -> Engine.Sim.time
(** Serialization time of one 53-byte cell at this link's bandwidth. *)

val propagation : t -> Engine.Sim.time

val id : t -> int
(** Unique per link in the process; names the link in hop journals. *)

val cells_sent : t -> int
val cells_dropped : t -> int
(** Queue-overflow drops plus injected losses. *)

val cells_offered : t -> int
(** [cells_sent + cells_dropped]: every cell that reached the delivery
    point, the denominator for loss-rate arithmetic. *)

val queue_length : t -> int
(** Legacy queue plus cells planned-but-not-yet-serializing on the train
    fast path. *)

val queue_length_at : t -> at:Engine.Sim.time -> int
(** {!queue_length} evaluated at a past instant [at] (local time, between
    the previous event and the one about to fire): planned cells count as
    queued iff accepted at or before [at] and not yet serializing. The
    timeseries sampler's catch-up boundaries read this so train-path runs
    report the same depths the per-cell path would. *)

val busy_ns_at : t -> at:Engine.Sim.time -> int
(** Cumulative serialization ns as of [at]: one cell_time per
    serialization start at or before [at], real or planned, independent
    of how far the lazy fold cursors have advanced. *)

(** {2 Train fast path (DESIGN.md §14)}

    Planned (analytic) transport: a whole train's acceptances, queue drops,
    serialization starts and high-water marks are computed up front against
    the link's planned state and folded lazily into the real counters no
    later than any observer reads them. Plans refuse — returning the caller
    to the per-cell path — whenever legacy traffic is in flight, a fault
    injector is attached, or any same-instant decision would depend on
    event-heap order. *)

type plan
type hop

val plan_chain :
  t ->
  n:int ->
  first_attempt:Engine.Sim.time ->
  gap:Engine.Sim.time ->
  plan option
(** Sender-paced plan: cell 0's send attempt fires at [first_attempt] from
    an event scheduled [gap] earlier; each acceptance triggers the next
    attempt [gap] later; refused attempts drop once and retry every
    cell_time, reproducing the NI tx / ni.retry shape (including the
    per-attempt drop accounting of a saturated bounded queue). *)

val plan_feed :
  t ->
  arrivals:Engine.Sim.time array ->
  sched_lead:Engine.Sim.time ->
  refuse_occ:int ->
  plan option
(** Arrival-fed plan (switch output, fixed-pace PIO uplink): cell i's
    attempt fires at [arrivals.(i)] (strictly increasing) from an event
    scheduled [sched_lead] earlier. Refuses rather than modelling a drop if
    occupancy would reach [refuse_occ] (the caller's drop threshold) or the
    link's own capacity. *)

val plan_accepts : plan -> Engine.Sim.time array
val plan_starts : plan -> Engine.Sim.time array
(** Delivery of cell i lands at [starts.(i) + cell_time + propagation]. *)

val plan_queue_after : plan -> float array
(** Queue depth just after each acceptance — what a feeder reading
    {!queue_length} right after a successful {!send} would see (the
    switch's port high-water sample). *)

val plan_drops : plan -> Engine.Sim.time array
(** Instants of the planned refused attempts, ascending (sender-paced
    plans only; {!truncate_hop} retracts those at or after the cut). *)

val commit_plan : t -> plan -> fold_sent:bool -> hop
(** Install a plan. With [fold_sent], delivered-cell accounting folds
    analytically (trains); without, the caller keeps real delivery events
    (bridged per-cell sends). *)

val truncate_hop : t -> hop -> keep:int -> now:Engine.Sim.time -> unit
(** The owning train was cut back to [keep] cells: discard planned entries
    at or after [now] (the per-cell path re-performs them for real). *)

val pending_hops : t -> int
(** Committed plans (train hops and bridged cells) not yet retired.
    Read-only: does not fold. *)

val set_interfere : t -> (unit -> unit) -> unit
(** Callback run before a per-cell send threads through pending planned
    state; the owning NI uses it to split a chain still accepting here. *)

val clear_interfere : t -> unit

val set_on_accept : t -> (unit -> unit) -> unit
(** Callback fired once per real cell {!send} accepts (queued or put on
    the wire, legacy or bridged) — never for planned train commits.
    The network wires it on every switch-ingress link to count cells into
    the per-ingress in-flight gate (DESIGN.md §14/§16). *)

val set_on_loss : t -> (Cell.t -> unit) -> unit
(** Callback fired once per cell the attached fault injector drops inside
    the link (not for transmit-queue overflow: the sender sees that as a
    refused {!send}). The network wires it only while flow accounting is
    on, to charge the loss to the cell's flow (DESIGN.md §17). *)
