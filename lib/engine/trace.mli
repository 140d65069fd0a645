(** Virtual-time structured tracing.

    A process-global tracer that stamps events with the simulator's
    virtual-nanosecond clock and buffers them in a bounded ring (oldest
    events are overwritten). Disabled by default; when disabled, emitting
    costs a single boolean read, so instrumentation can stay in the hot
    paths — guard any argument construction behind {!enabled}.

    The retained buffer exports as Chrome [trace_event] JSON, so a run opens
    directly in Perfetto / chrome://tracing. *)

type category =
  | Cell  (** ATM cells on links and through the switch *)
  | Desc  (** NI descriptor processing: doorbells, DMA, injection *)
  | Mux  (** U-Net mux/demux deliveries and drops *)
  | Tcp  (** TCP retransmission and congestion events *)
  | Am  (** Active Messages go-back-N events *)
  | Cpu  (** host CPU time charged, by layer (the paper's Table 1) *)

val category_name : category -> string

type arg = Int of int | Float of float | Str of string

type phase =
  | Instant
  | Complete of int  (** a whole span with its duration in virtual ns *)
  | Flow_start of int  (** flow arrow start; payload is the flow id *)
  | Flow_end of int

type event = {
  ts : int;  (** virtual ns *)
  cat : category;
  ph : phase;
  name : string;
  pid : int;  (** the live simulator's {!Clock.generation} *)
  tid : int;  (** host id where the emitter knows it; 0 otherwise *)
  args : (string * arg) list;
}

val enabled : unit -> bool

val on_train : Trainplan.t -> Trainplan.undo
(** Synthesize a committed train's slices — ["train.uplink"], then per
    stage ["train.switch"] and ["train.trunk"] (["train.downlink"] at the
    egress stage) — as complete events merged into {!events} by
    timestamp. The undo shrinks them to the kept prefix, or drops them
    when nothing is kept. A no-op unless {!enabled}. One slice per coarse
    phase instead of per-cell events is what lets tracing keep the
    cell-train fast path engaged. *)

val start : ?capacity:int -> unit -> unit
(** Enable tracing into a fresh ring of [capacity] events (default 65536),
    shared by per-cell events and train slices. *)

val stop : unit -> unit
(** Disable tracing; the buffered events remain readable. *)

val clear : unit -> unit
(** Drop all buffered events (tracing stays in its current
    enabled/disabled state). *)

val instant : ?tid:int -> ?args:(string * arg) list -> category -> string -> unit

val complete :
  ?tid:int -> ?args:(string * arg) list -> dur:int -> category -> string -> unit
(** A span of [dur] virtual ns starting now, as one event. *)

val flow_start :
  ?tid:int -> ?args:(string * arg) list -> id:int -> category -> string -> unit
(** Flow events draw arrows between slices in Perfetto; both ends of a
    flow share [id] (and should share a name). Used by {!Span} to link
    the send and receive sides of one message. *)

val flow_end :
  ?tid:int -> ?args:(string * arg) list -> id:int -> category -> string -> unit

val events : unit -> event list
(** The retained events: per-cell events in emission order, with the
    retained train slices that no truncation dropped merged in by
    timestamp (per-cell events first on a tie). At most the ring's
    capacity. *)

val total_events : unit -> int
(** Events emitted since {!start}, including overwritten ones. *)

val dropped_events : unit -> int
(** Events lost to ring overwrite. Also exposed as the
    [trace_events_dropped_total] counter in {!Metrics} (registered on
    first drop), so silent loss shows up in metric dumps. *)

val to_chrome_json : unit -> string
(** The retained events as a Chrome [trace_event] JSON array: objects with
    [name]/[cat]/[ph]/[ts]/[pid]/[tid] (timestamps in microseconds). *)

val write_chrome_file : string -> int
(** Write {!to_chrome_json} to a file; returns the number of events
    written. *)
