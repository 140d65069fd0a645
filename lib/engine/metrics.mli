(** A process-global registry of labelled counters, gauges and virtual-time
    histograms, dumpable as Prometheus text exposition or JSON.

    Instruments are deduplicated by (family name, label set): registering
    the same pair again returns the existing instrument. Label order does
    not matter. {!reset} zeroes all values but keeps every registration, so
    handles held by long-lived modules remain valid and declared families
    keep appearing in dumps even at zero. *)

type labels = (string * string) list

module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit

  val set_max : t -> float -> unit
  (** Raise the gauge to [v] if above its current value (high-water marks). *)

  val set_max_int : t -> int -> unit
  (** [set_max] of an integer level, without boxing a float at the call
      site (a per-cell queue depth). *)

  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val summary : t -> Stats.Summary.t
  val count : t -> int
end

(** A DDSketch-style log-bucketed quantile sketch: every reported
    quantile is within relative error {!Sketch.alpha} (1%) of the exact
    sample at that rank, at O(occupied buckets) memory however many
    values are observed. Use it where a {!Histogram} (which retains every
    sample) would grow without bound — e.g. per-message latency over a
    millions-of-messages run. *)
module Sketch : sig
  type t

  val create : unit -> t
  val observe : t -> float -> unit
  val clear : t -> unit
  val count : t -> int
  val total : t -> float
  val max : t -> float
  val alpha : float
  (** The relative error bound, 0.01. *)

  val quantile : t -> float -> float
  (** Nearest-rank quantile (rank [q*(n-1)]); raises [Invalid_argument]
      when the sketch is empty. *)
end

val counter : ?help:string -> string -> labels -> Counter.t
val gauge : ?help:string -> string -> labels -> Gauge.t

val gauge_fn : ?help:string -> string -> labels -> (unit -> float) -> unit
(** A gauge whose value is computed by callback at dump time.
    Re-registration replaces the callback (a fresh component instance with
    the same identity wins). *)

val on_gauge_fn : (string -> labels -> (unit -> float) -> unit) -> unit
(** Observe every {!gauge_fn} registration — past (replayed immediately
    with canonical labels) and future. One registration, two consumers:
    this is how [Engine.Timeseries] samples callback gauges continuously
    instead of only reading them at dump time. *)

val histogram : ?help:string -> string -> labels -> Histogram.t

val sketch : ?help:string -> string -> labels -> Sketch.t
(** Register (or fetch) a quantile sketch. Dumps as a summary with
    p50/p99/p99.9 quantile lines plus [_sum]/[_count]. *)

val register_flush : (unit -> unit) -> unit
(** Register a deferred-accounting flush, run before every registry read
    ([counter_value], the Prometheus/JSON dumps). Layers that fold state
    into metrics lazily use this so dumps always see settled values.
    Registrations are cleared by [reset]. *)

val flush : unit -> unit
(** Run all registered flushes now. *)

val reset : unit -> unit
(** Zero every value; keep all registrations. *)

val counter_value : string -> labels -> int option
(** Look up a counter sample's current value (for tests and checks). *)

val pp_prometheus : Format.formatter -> unit -> unit
val pp_json : Format.formatter -> unit -> unit
val to_prometheus_string : unit -> string
val to_json_string : unit -> string

val write_file : string -> unit
(** Dump the registry to a file: [.json] selects the JSON dump, any other
    extension the Prometheus text exposition format. *)
