(** ATM cells: the unit of transmission on the simulated fabric. A cell is 53
    bytes on the wire — a 5-byte header (of which we model the VCI and the
    PTI end-of-packet bit used by AAL5) and a 48-byte payload. *)

type tag = {
  ctx : Engine.Span.ctx option;
      (** span context of the CS-PDU the cell was segmented from *)
  mutable journal : Engine.Journal.t option;
      (** the PDU's hop journal, allocated by [Network] on first need while
          spans or path records are on (DESIGN.md §17); never set on
          {!untagged} *)
}
(** Observation state riding a cell through links and switches. The cells
    of a PDU share one, and {!untagged} when nothing observes them, so the
    carrier widens no cell. *)

type t = {
  vci : int;  (** virtual channel identifier *)
  eop : bool;  (** PTI "end of AAL5 PDU" marker *)
  payload : Engine.Buf.t;
      (** exactly {!payload_size} bytes; usually a zero-copy view into the
          CS-PDU it was segmented from *)
  tag : tag;
}

val header_size : int (* 5 *)
val payload_size : int (* 48 *)
val on_wire_size : int (* 53 *)
val untagged : tag

val make : ?tag:tag -> vci:int -> eop:bool -> Engine.Buf.t -> t
(** Raises [Invalid_argument] unless the payload is exactly 48 bytes. *)

val with_vci : t -> int -> t
(** Same cell relabelled with a new VCI (switch header rewrite). *)

val sunatm_bytes : t -> string
(** The cell as a LINKTYPE_SUNATM capture record (4-byte pseudo-header +
    payload), for pcapng taps. Uncounted materialization. *)

val pp : Format.formatter -> t -> unit

(** A cell train: the cells of one CS-PDU travelling as a unit on the train
    fast path (DESIGN.md §14). Hops that install analytic (planned) state
    for a train register truncation listeners; when interference splits the
    train back to the per-cell path, [truncate] keeps the accepted prefix
    and each listener discards its planned future for the rest. *)
module Train : sig
  type train

  val of_cells : t array -> train
  (** All cells must share the sender-side VCI ([vci] reports cell 0's). *)

  val length : train -> int
  (** Live prefix length (shrinks on truncation). *)

  val vci : train -> int
  val cell : train -> int -> t

  val on_truncate : train -> (keep:int -> now:Engine.Sim.time -> unit) -> unit

  val truncate : train -> keep:int -> now:Engine.Sim.time -> unit
  (** Keep only the first [keep] cells and notify listeners (most recently
      registered first). No-op unless [keep] < current length. *)

  val expand :
    Engine.Sim.t ->
    label:string ->
    train ->
    rx_vci:int ->
    deliveries:Engine.Sim.time array ->
    (t -> unit) ->
    unit
  (** Per-cell receive, called at [deliveries.(0)]: hand each cell,
      relabelled [rx_vci], to the handler at its delivery instant, one
      chained [label] event per cell. Each step re-checks the live length,
      so an upstream truncation stops the chain (the per-cell path
      re-delivers the cut cells for real). *)

  val receive :
    Engine.Sim.t ->
    Engine.Sync.Server.t ->
    stage:string ->
    cost:Engine.Sim.time ->
    faulted:bool ->
    train ->
    rx_vci:int ->
    deliveries:Engine.Sim.time array ->
    action:(t -> unit) ->
    (t -> unit) ->
    unit
  (** A NI's receive of a whole train, called at [deliveries.(0)]. On the
      fast path ({!Engine.Trainmode.active} and not [faulted]) the run of
      per-cell [cost] jobs on [server] is one paced batch, charged to the
      profile as [stage], whose [action]s (one per cell, relabelled
      [rx_vci]) run at its completion, and an upstream truncation trims
      the batch. Otherwise — or when [server]
      refuses the batch — the cells go one by one to the per-cell handler
      through {!expand} with label ["ni.rx_train"]. *)
end

type train = Train.train
