(** Global gate for the cell-train fast path.

    [active ()] is false only under {!force_per_cell}. Every observer
    rides the fast path: trace, spans and pcapng records are synthesized
    from committed plans, timeseries probes read planned state, both
    clocks of {!Profile} (the virtual one is charged per batch by
    {!Sync.Server}) and the flight recorder see trains too. Per-site
    conditions — fault injectors and bounded queues — are checked at the
    individual link/NI instead, so expansion stays local to the affected
    hop. *)

val active : unit -> bool

val synthesizing : unit -> bool
(** Spans, trace slices or pcapng records are being synthesized from
    committed train plans, so a commit must publish its {!Trainplan.t}. *)

val force_per_cell : bool -> unit
(** [force_per_cell true] disables the fast path globally (the --per-cell
    flag), used by the differential tests and benches to compare both
    modes. *)
