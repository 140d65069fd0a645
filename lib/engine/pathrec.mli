(** INT-style per-PDU path records (DESIGN.md §17).

    One record per delivered PDU: who sent it, which VCI it rode, and for
    every switch stage it crossed a hop entry — stage id, ingress/egress
    port, output-queue depth at arrival, and the hop latency (forwarding
    instant minus the previous stage's forwarding instant, or minus the
    injection instant for the first hop). The fabric stamps records at
    real instants on the per-cell path and synthesizes the identical
    schema analytically from committed train plans, so a run's export is
    byte-identical whichever path its PDUs rode.

    Records synthesized from a plan are provisional until their EOP cell
    has really been accepted by the sender's uplink ([settle]): a train
    truncation discards the provisional records of cut cells (the
    per-cell path re-stamps them for real). Per-hop-position latency
    sketches ([atm_path_hop_latency_ns{hop="<j>"}]) are fed only at
    settle, by the owning fabric's registered metrics flush, so nothing
    here pins the train fast path. *)

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

val add : settle:Sim.time -> record -> unit
(** Install a record. It becomes visible to {!records}/{!write_json} and
    feeds the hop sketches once {!fold} passes [settle] — the instant its
    EOP cell is irrevocably on the wire (per-cell stampers pass the
    delivery instant; train synthesis passes the EOP cell's planned
    uplink acceptance). *)

val on_train : seq:int ref -> Trainplan.t -> Trainplan.undo
(** Synthesize a provisional record for each EOP cell of a committed
    train, numbered from [seq] (the flow's next PDU sequence number,
    shared with the per-cell stamper) and settling at the cell's planned
    uplink acceptance. The undo discards the cut cells' records
    and hands their sequence numbers back unless a later injection on
    the flow consumed one. A no-op unless records are being collected. *)

val fold : now:Sim.time -> unit
(** Settle every provisional record with [settle <= now]. The owning
    fabric folds up to just before the current instant whenever it adds
    a record or publishes a train, so the provisional pool stays as small
    as the traffic in flight, and registers a fold to now as a metrics
    flush so every registry read and export sees settled state. *)

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
