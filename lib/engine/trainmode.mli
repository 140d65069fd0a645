(** Global gate for the cell-train fast path.

    [active ()] is true when no enabled observer demands per-cell
    granularity. Trace, Span and Timeseries default to [Per_train]
    (their train-granular backends synthesize output from committed plan
    records, so they do not pin); pcapng defaults to [Per_cell]; the
    profilers and the flight recorder measure event-grain behavior
    itself and always pin. Per-site conditions — fault injectors and
    bounded queues — are checked at the individual link/NI
    instead, so expansion stays local to the affected hop.

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
