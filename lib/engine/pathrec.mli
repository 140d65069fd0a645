(** INT-style per-PDU path records (DESIGN.md §17).

    One record per PDU whose EOP cell reached its destination host. The
    record is sealed when that cell arrives, before AAL5 checks the PDU,
    so a PDU that AAL5 then discards (a lost middle cell, a corrupted
    payload, an EOP merged into the next PDU's cells) still has one; a
    PDU whose EOP cell was lost has none. Each record holds who sent the
    PDU, which VCI it rode, and for
    every switch stage it crossed a hop entry — stage id, ingress/egress
    port, output-queue depth at arrival, and the hop latency (forwarding
    instant minus the previous stage's forwarding instant, or minus the
    injection instant for the first hop). On the per-cell path the record
    travels with the PDU as a {!journey} riding its EOP cell, stamped at
    real instants by each stage's route and sealed at delivery; for
    committed train plans {!on_train} synthesizes the identical schema
    analytically, so a run's export is byte-identical whichever path its
    PDUs rode.

    Records synthesized from a plan are provisional until their EOP cell
    has really been accepted by the sender's uplink: a train truncation
    discards the provisional records of cut cells (the per-cell path
    re-stamps them for real). Per-hop-position latency sketches
    ([atm_path_hop_latency_ns{hop="<j>"}]) are fed only at settle, so
    nothing here pins the train fast path. {!deliver} and {!on_train}
    settle every record due strictly before their instant, so the
    provisional pool holds only the traffic in flight. *)

type hop = {
  h_stage : int;  (** switch id (fabric stage) *)
  h_in_port : int;
  h_out_port : int;
  h_queue : int;  (** output-queue depth at the cell's arrival *)
  h_latency_ns : int;
      (** forwarding instant minus the previous forwarding (or injection)
          instant: serialization + queueing on the ingress link,
          propagation, and switch transit *)
}

type record = {
  r_src : int;
  r_dst : int;
  r_vci : int;  (** the sender-side (uplink) VCI *)
  r_seq : int;  (** per-flow PDU sequence number *)
  r_injected : Sim.time;
  r_delivered : Sim.time;
  r_hops : hop array;
}

val start : unit -> unit
val stop : unit -> unit
val enabled : unit -> bool

val clear : unit -> unit
(** Drop all records (settled and provisional) and reset the hop
    sketches; keeps the enabled flag. *)

val on_train : now:Sim.time -> seq:int ref -> Trainplan.t -> Trainplan.undo
(** Synthesize a provisional record for each EOP cell of a train committed
    at [now], numbered from [seq] (the flow's next PDU sequence number,
    shared with {!number}) and settling at the cell's planned uplink
    acceptance. The undo discards the cut cells' records and hands their
    sequence numbers back unless a later injection on the flow consumed
    one. A no-op unless records are being collected. *)

type journey
(** The record of one per-cell PDU in the making. It rides the PDU's EOP
    cell (the [path] of its [Atm.Cell.tag]), so stamping needs no lookup
    and stays exact when the fabric loses, duplicates or reorders cells. *)

val inject : src:int -> dst:int -> vci:int -> now:Sim.time -> journey
(** A fresh, unnumbered journey for an EOP cell entering the fabric at
    [now] on [src]'s uplink VCI [vci]. *)

val number : journey -> seq:int ref -> unit
(** Take the flow's next sequence number. Call it only once the uplink
    has accepted the cell: a train truncation triggered by that send can
    hand sequence numbers back first. *)

val stamp :
  journey ->
  hop:int ->
  stage:int ->
  in_port:int ->
  out_port:int ->
  queue:int ->
  now:Sim.time ->
  unit
(** The EOP cell was forwarded at stage [stage] (hop position [hop]) at
    [now], having found [queue] cells in the output queue. A no-op unless
    the journey expects hop [hop] next, so a duplicate cell cannot stamp
    a hop twice. *)

val deliver : journey -> now:Sim.time -> unit
(** The EOP cell reached its destination's NI: seal the journey into a
    record settling at [now], whatever AAL5 later makes of the PDU. Only
    the first delivery seals. *)

val fold : now:Sim.time -> unit
(** Settle every provisional record with [settle <= now]. The owning
    fabric registers a fold to now as a metrics flush, so every registry
    read and export sees settled state. *)

val capacity : int
(** Settled records kept; older ones are dropped, oldest first. *)

val count : unit -> int
(** Settled records so far (ring overflow included). *)

val dropped : unit -> int
(** Settled records lost to the bounded ring. *)

val records : unit -> record list
(** Settled records, ordered by (delivered, src, vci, seq) — a pure
    function of the traffic, independent of commit order, so train and
    per-cell runs list identically. *)

val hop_quantile : hop:int -> float -> float option
(** Quantile of the hop-position latency sketch (hop 0 = first switch
    stage); [None] before any record settles at that position. *)

val write_json : string -> unit
(** Export the settled records ({!records} order) plus the drop count. *)
