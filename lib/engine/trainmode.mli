(** Global gate for the cell-train fast path.

    [active ()] is false under {!force_per_cell} and while {!pinned}: only
    a pcapng capture needs to see the simulation between cells. Trace, spans, timeseries, both clocks of {!Profile}
    (the virtual one is charged per batch by {!Sync.Server}) and the
    flight recorder ride the fast path. Per-site conditions — fault
    injectors and bounded queues — are checked at the individual link/NI
    instead, so expansion stays local to the affected hop.

    A pinning capture is named in a [trainmode_pinned{observer="pcap"}]
    gauge and a one-line stderr warning (once per process). *)

val active : unit -> bool

val pinned : unit -> bool
(** A pcapng capture is attached ([Pcapng.enabled ()]). *)

val synthesizing : unit -> bool
(** Spans or trace slices are being synthesized from committed train
    plans, so a commit must publish its {!Trainplan.t}. *)

val force_per_cell : bool -> unit
(** [force_per_cell true] disables the fast path globally (the --per-cell
    flag), used by the differential tests and benches to compare both
    modes. *)
