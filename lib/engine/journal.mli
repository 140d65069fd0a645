(** The per-PDU hop journal (DESIGN.md §17).

    One record of a PDU's journey across the fabric, shared by its cells
    through their tag ([Atm.Cell.tag]) and allocated only while spans or
    path records are on. Per hop: the stage, the in and out ports, the
    output-queue depth at arrival, and the switch-in, forward and
    output-link-start instants; for the PDU: the injection, delivery and
    drop instants. {!Span}'s fabric milestones and {!Pathrec}'s records
    are two views of it.

    The per-cell path stamps it by one rule: EOP cells stamp hops, the
    first arrival at a hop wins, and any cell may record a drop (the
    latest wins). A committed train fills it in one call, {!of_plan}.
    Stamps take [t option], so a cell without a journal pays one match,
    and read the clock [Sim.create] attaches. *)

type t

val attach_clock : (unit -> int) -> unit

val create : ?ctx:Span.ctx -> unit -> t
(** A blank journal; while spans are on, span [ctx] views it. *)

val number : t -> src:int -> dst:int -> vci:int -> seq:int ref -> unit
(** Give the PDU a path record on the flow [src] -> [dst] (uplink VCI
    [vci]), numbered from the flow's counter. Call it once the uplink has
    accepted the EOP cell: a train truncation triggered by that send can
    hand sequence numbers back first. *)

val inject : t option -> unit
(** The EOP cell is offered to the uplink; the latest attempt counts. *)

val switch_in : t option -> stage:int -> in_port:int -> unit

val forward :
  t option -> stage:int -> out_port:int -> link:int -> queue:int -> unit
(** Switch [stage] hands the EOP cell to output [out_port], whose link
    has id [link], finding [queue] cells queued there. *)

val link_start : t option -> link:int -> at:int -> unit
(** The EOP cell starts serializing at [at] on link [link]: a hop's
    output link, else the uplink. *)

val drop : t option -> unit

val deliver : t option -> unit
(** The EOP cell reached its host's NI: a numbered journal seals its
    path record, whatever AAL5 then makes of the PDU. *)

val of_plan : Trainplan.t -> t -> seq:int ref option -> Trainplan.undo
(** Fill the journal of a committed train (one CS-PDU, its EOP last) with
    the instants the per-cell path would stamp, its planned uplink
    refusals as drops; with [seq], seal its path record, provisional
    until the EOP's planned acceptance. The undo clears a cut EOP's
    stamps, discards its record and hands its sequence number back
    unless a later injection took one, and retracts the refusals the
    link retracts; the per-cell path then stamps what really happens. *)
