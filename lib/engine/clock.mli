(** The live simulator's clock, for the process-global observers.

    Experiments create their simulators deep inside library code, so
    rather than thread a simulator handle through every observer,
    [Sim.create] attaches each new simulator here. Exactly one simulator
    is live at a time in every runner, which makes the last-attached
    clock the active one. Trace, Span, Journal and Pcapng stamp with
    {!now}; Profile and Recorder with {!cumulative}; Trace's Chrome
    [pid], Timeseries' probes and Recorder's flows are scoped by
    {!generation}. *)

val attach : (unit -> int) -> unit
(** Called once by [Sim.create] with the new simulator's clock: folds the
    previous simulator's final time into {!base} and bumps {!generation}. *)

val now : unit -> int
(** The live simulator's virtual time in ns (0 before any [Sim.create]). *)

val base : unit -> int
(** The final clocks of every simulator attached before the live one,
    summed. *)

val cumulative : unit -> int
(** [base () + now ()]: virtual time that keeps climbing across
    simulators, so telemetry spanning a whole run is monotone. *)

val generation : unit -> int
(** The number of simulators attached so far (0 before the first). *)
