(** Periodic virtual-time sampling of registered probes into bounded
    ring-buffer series, dumped as JSON/CSV next to the metrics dump.

    Components register probes at construction time, like metrics; the
    simulator drives sampling from its event loop ({!on_event}), taking a
    sample whenever the clock crosses the next multiple of {!interval} —
    at most one per fired event, so a long idle gap yields one sample
    rather than thousands of identical ones.

    Probes are generation-scoped: each [Sim.create] bumps
    {!Clock.generation} and only probes registered — or re-registered,
    which replaces the callback like the metrics registry does — under
    the current generation are read, so callbacks never report state from
    a dead simulator instance.

    Every recorded value also folds into a [<name>_hw] metrics gauge via
    set_max, so high-water marks appear in ordinary metrics dumps.
    Process-global, off by default, one boolean test per event when off. *)

type labels = (string * string) list

type kind =
  | Gauge  (** record the callback's value *)
  | Rate  (** record the delta per simulated second between samples *)
  | Utilization
      (** callback returns cumulative busy-ns; record Δbusy/Δt in [0,1] *)

val register : ?kind:kind -> string -> labels -> (unit -> float) -> unit
(** Register (or re-register, replacing the callback) a probe. Cheap when
    sampling is disabled; safe to call from component constructors. *)

val register_at : ?kind:kind -> string -> labels -> (int -> float) -> unit
(** Like {!register}, but the callback receives the sample's cumulative
    virtual time. Required for probes over analytic train-path state:
    committed plan records describe future cell departures, so the probe
    must evaluate queue depth / busy time *at* the sample boundary rather
    than read a counter mutated cell by cell. *)

val start : unit -> unit
(** Enable sampling. Also installs (once) the [Metrics.gauge_fn] bridge:
    every callback gauge registration doubles as a [Gauge] probe. *)

val stop : unit -> unit
val clear : unit -> unit
(** Drop all probes and series (for tests). *)

val enabled : unit -> bool

val set_interval : int -> unit
(** Sampling interval in simulated ns (default 10 µs). *)

val interval : unit -> int

val on_event : int -> unit
(** Called by [Sim.step] with the cumulative virtual time of the event
    about to fire; once the clock passes the next {!interval} multiple,
    samples all current-generation probes at the most recent boundary
    (at most one boundary per event — idle gaps are skipped, not walked).
    Points carry boundary timestamps and probes evaluate at the
    boundary, not at the triggering event's time. *)

type series = {
  s_name : string;
  s_labels : labels;
  s_kind : kind;
  s_dropped : int;  (** points lost to the ring bound *)
  s_points : (int * float) list;  (** (cumulative virtual ns, value) *)
}

val series : unit -> series list
val to_json : unit -> Json.t
val write_json : string -> unit
val write_csv : string -> unit
