(** INT-style per-PDU path records (DESIGN.md §17): the path view of
    hop journals ({!Journal}).

    One record per PDU whose EOP cell reached its destination host,
    sealed when that cell arrives, before AAL5 checks the PDU: a PDU that
    AAL5 then discards still has one, a PDU whose EOP cell was lost has
    none. A record holds who sent the PDU, which VCI it rode, and per
    switch stage crossed: stage id, ingress/egress port, output-queue
    depth at arrival, and hop latency (forwarding instant minus the
    previous stage's, or minus the injection for the first hop).

    A committed train's record is sealed at commit and stays provisional
    until its EOP cell's uplink acceptance; a truncation discards it.
    Per-hop-position latency sketches
    ([atm_path_hop_latency_ns{hop="<j>"}]) are fed only at settle, so
    nothing here pins the train fast path. *)

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
  r_injected : int;
  r_delivered : int;
  r_hops : hop array;
}

val start : unit -> unit
val stop : unit -> unit
val enabled : unit -> bool

val clear : unit -> unit
(** Drop all records (settled and provisional) and reset the hop
    sketches; keeps the enabled flag. *)

val add : settle:int -> record -> unit
(** A provisional record, settling at [settle] ({!Journal} seals). *)

val discard : record -> unit
(** Drop a provisional record (a truncated train's). *)

val fold : now:int -> unit
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
