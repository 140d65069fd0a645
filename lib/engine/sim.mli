(** Discrete-event simulation core: a virtual clock in nanoseconds and a
    priority queue of pending events. Events scheduled for the same instant
    fire in FIFO order of scheduling, which makes runs fully deterministic. *)

type time = int
(** Simulated time in nanoseconds. OCaml's native [int] gives 62 bits, i.e.
    over a century of simulated time. *)

type t
(** A simulation instance: clock + event queue. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> t

val now : t -> time
(** Current virtual time. *)

val global_now : t -> time
(** Cumulative virtual time: this instance's clock plus the final clocks
    of every simulator instance created before it. Monotone across
    [create] calls; while [t] is the live simulator it equals
    {!Clock.cumulative}, what [Profile]/[Timeseries]/[Recorder] see. *)

val schedule_at : ?label:string -> t -> time -> (unit -> unit) -> handle
(** [schedule_at sim t f] runs [f] when the clock reaches [t]. [t] must not be
    in the past. [label] names the event kind for {!Profile}'s wall
    clock; pass a static string — it is stored on the event record and
    never copied. *)

val schedule : ?label:string -> t -> delay:time -> (unit -> unit) -> handle
(** [schedule sim ~delay f] runs [f] [delay] nanoseconds from now.
    [delay] must be non-negative. *)

val schedule_drop_at : ?label:string -> t -> time -> (unit -> unit) -> unit
(** Fire-and-forget [schedule_at]: no handle is returned, so the event can
    never be cancelled and its record is recycled through a per-simulator
    free list after firing. Hot per-hop schedule sites that would otherwise
    [ignore] the handle use this to stay allocation-free in steady state. *)

val schedule_drop : ?label:string -> t -> delay:time -> (unit -> unit) -> unit
(** Fire-and-forget [schedule]. See {!schedule_drop_at}. *)

val cancel : handle -> unit
(** Prevent a pending event from firing. Cancelling an already-fired or
    already-cancelled event is a no-op. A cancelled-but-scheduled event
    stays in the queue as a tombstone until popped; it is counted in
    [sim_events_total{outcome=cancelled}]. *)

val step : t -> bool
(** Fire the next pending event, advancing the clock to its timestamp.
    Returns [false] when no events remain. *)

val run : ?until:time -> t -> unit
(** Fire events until the queue is empty, or until the next event lies
    strictly beyond [until] (the clock is then left at [until]). *)

val pending : t -> int
(** Number of scheduled-and-not-cancelled events. *)

(** {2 Event-queue introspection}

    Always-on lifecycle counters ([sim_events_total{outcome}] in the
    metrics registry) accumulated across every simulator instance of the
    process; per-instance queue-depth and tombstone probes are registered
    with [Timeseries] at {!create}, and per-pop cost / same-timestamp
    batch histograms are reported to [Profile] while its wall clock is
    enabled. *)

val events_fired : unit -> int
val events_cancelled : unit -> int

val tombstone_ratio : unit -> float
(** Cancelled events as a fraction of all settled (fired + cancelled)
    events — the share of queue traffic that is pure pop-path waste. *)

(* Time unit constructors and conversions. *)

val ns : int -> time
val us : int -> time
val ms : int -> time
val sec : int -> time
val of_us_f : float -> time
val to_us : time -> float
val to_sec : time -> float
