(** Bounded flight recorder and stall watchdog with post-mortem bundles.

    When armed ({!start}), sender-side protocols report per-flow unacked
    ("pending") state, receivers report per-flow deliveries, and queue
    owners register snapshot callbacks. The watchdog — ticked from the
    simulator's event loop — declares a stall when some flow has had
    pending data for longer than the deadline with nothing delivered, on
    that flow or anywhere else, since its pending epoch began; a sender
    whose receiver finished and stopped polling (the benign end-of-run
    shape) is exonerated by its own traffic still landing in the
    receiver's rings, while a black-holed sender — whole fabric silent
    with data owed — is not.

    On trigger — stall, or an explicit {!trigger} for failed experiment
    checks — the recorder disarms (exactly one bundle per arming) and
    dumps a post-mortem bundle to its directory: manifest (reason, flow
    table), all snapshots, recent trace events, the metrics registry, and
    whatever of timeseries/profile/spans is enabled. The bundle is also
    kept in memory for tests.

    Process-global, off by default; every reporting call is a single
    boolean test when disarmed. *)

val start : ?dir:string -> ?deadline:int -> unit -> unit
(** Arm the watchdog. [dir] is where the bundle lands (default
    ["postmortem"]), [deadline] the stall threshold in simulated ns
    (default 2 s — past the UAM retransmission give-up). The bundle keeps
    the last 256 trace events. *)

val stop : unit -> unit
val armed : unit -> bool

(** {2 Reporting (no-ops when disarmed)} *)

val sender_pending : key:string -> int -> unit
(** Absolute count of unacked messages on a directed flow (e.g.
    ["uam.0->1"]). A rise from zero or any ack progress restarts the
    flow's pending epoch. *)

val flow_delivered : key:string -> unit
(** The receiver processed a message on the flow (same key string as the
    sender uses for the opposite direction). *)

val note_delivery : unit -> unit
(** A payload reached some endpoint (flow-agnostic; manifest context). *)

val gave_up : key:string -> unit
(** The sender abandoned retransmission on the flow. *)

val register_snapshot : string -> (unit -> Json.t) -> unit
(** Register (or replace) a named state-snapshot callback, invoked only
    when a bundle is built. Safe to call from component constructors. *)

(** {2 Watchdog and triggers} *)

val tick : int -> unit
(** Called by [Sim.step] with cumulative virtual time; fires the
    post-mortem if any current-generation flow is stalled. *)

val trigger : reason:string -> unit
(** Explicit trigger (e.g. an experiment check failed while armed). *)

type trigger_info = { tr_reason : string; tr_at : int; tr_dir : string }

val last_trigger : unit -> trigger_info option
val trigger_count : unit -> int

val last_bundle : unit -> (string * Json.t) list
(** The most recent bundle's JSON parts (manifest/snapshots/events), as
    written, for tests. *)
