(** Global gate for the cell-train fast path.

    [active ()] is true when no attached observer needs to see the
    simulation between cells. Pinning follows from what is attached:
    trace, spans, timeseries and the wall clock of {!Profile} never pin;
    a pcapng capture pins unless PDU sampling is on; the virtual clock of
    {!Profile} and the flight recorder always pin. Per-site conditions —
    fault injectors and bounded queues — are checked at the individual
    link/NI instead, so expansion stays local to the affected hop.

    When observers do pin, each culprit is named in a
    [trainmode_pinned{observer}] gauge and a one-line stderr warning
    (once per process) — never for {!force_per_cell}, which is an
    explicit request. *)

val active : unit -> bool

val pinned : unit -> string list
(** The observers currently pinning the per-cell path (empty when the
    fast path is available). [force_per_cell] is not listed. *)

val synthesizing : unit -> bool
(** Spans or trace slices are being synthesized from committed train
    plans, so a commit must publish its {!Trainplan.t}. *)

val force_per_cell : bool -> unit
(** [force_per_cell true] disables the fast path globally (the --per-cell
    flag), used by the differential tests and benches to compare both
    modes. *)
