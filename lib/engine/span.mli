(** Causal per-message spans with latency attribution.

    A span is minted when a message enters the system (UAM send, TCP
    segment emission, raw U-Net descriptor push); its context rides the
    message's bytes through every layer — descriptor queues, mux, NI
    models, AAL5 cells, switch ports — and back up the receive path.
    Layers stamp {!mark} milestones as the bytes pass; retransmissions
    mint {!child} spans of the original, so a retried message stays one
    connected tree rather than a new root.

    From the finished marks, {!phases} derives a per-message latency
    breakdown whose deltas telescope — they sum exactly to the span's
    journey time — and {!attribution} aggregates it across all spans,
    feeding per-phase [span_phase_ns] histograms in {!Metrics}.

    Process-global, like {!Trace}: [Sim.create] registers the live
    simulator's clock. Disabled by default; when disabled, {!mark} costs
    one boolean read and {!root}/{!child} still mint contexts (cheaply)
    so data structures can carry them unconditionally. *)

type ctx = { trace_id : int; span_id : int; minted_at : int }

type mark =
  | Doorbell  (** descriptor pushed onto the endpoint's tx ring *)
  | Nic_tx  (** NI starts processing the descriptor *)
  | Injected  (** last (EOP) cell of the PDU enters the network *)
  | Link_tx  (** cell serialization starts on a link (latest link wins) *)
  | Switch_in  (** EOP cell arrives at a switch input port *)
  | Switch_out  (** cell routed and handed to the output link *)
  | Rx_cell  (** EOP cell arrives at the receiving NI *)
  | Demuxed  (** mux matched the channel and filled an rx descriptor *)
  | Popped  (** host popped the rx descriptor from the free/rx ring *)
  | Dispatched  (** UAM handler returned *)
  | Dropped
      (** the message (or one of its cells) was discarded — injected
          fault, queue overflow, reassembly failure, or receive-path
          exhaustion. Not part of the phase taxonomy: a retransmission
          appears as a child span, the drop as this mark on the victim. *)

val mark_name : mark -> string

val enabled : unit -> bool


val start : unit -> unit
(** Enable span collection into a fresh store. *)

val stop : unit -> unit
val clear : unit -> unit

val root : ?host:int -> string -> ctx
(** Mint a new root span (a fresh trace). *)

val child : ?host:int -> string -> ctx -> ctx
(** Mint a span in the parent's trace — retransmits, replies, acks. *)

val mark : ctx option -> mark -> unit
(** Stamp a milestone at the current virtual time. Marks replace: the
    latest write wins (phases are computed from final values only).
    Emits Chrome flow events into {!Trace} at [Doorbell] / [Popped] when
    tracing is on, linking send and receive sides. The fabric milestones
    are not stamped here: they are views of the PDU's {!Journal}. *)

val attach : ctx option -> (mark -> int option) -> unit
(** Give the span a view: a source of milestones read at export, such as
    a PDU's hop journal ({!Journal.create}). Each mark reads as the latest
    of the span's own stamp and its views'. A no-op unless spans are on. *)

val observe_latency : ctx option -> unit
(** Fold (now − mint time) into the [message_latency_ns] quantile sketch
    in {!Metrics} (registered on first use). Works with span collection
    off: every context carries its mint time. *)

val latency : unit -> Metrics.Sketch.t
(** The [message_latency_ns] sketch (registering it if needed). *)

(** {2 Reading finished spans} *)

type span = {
  id : int;
  trace_id : int;
  parent : int option;
  name : string;
  host : int;
  minted : int;  (** virtual ns when the span was minted *)
  marks : int array;  (** internal; read via {!mark_time} *)
  mutable views : (mark -> int option) list;  (** internal: see {!attach} *)
  mutable observed : bool;  (** internal: histogram feed guard *)
}

val spans : unit -> span list
(** All spans, oldest first. *)

val count : unit -> int
val mark_time : span -> mark -> int option

val phases : span -> (string * int) list
(** Per-phase latency in virtual ns, from consecutive present
    milestones. Telescoping: the deltas sum exactly to
    (last milestone − mint time). *)

val journey : span -> int option
(** (last milestone − mint time), or [None] if nothing was marked. *)

val phase_names : string list
(** The phase taxonomy, in canonical data-path order. *)

type agg = { phase : string; p_count : int; total_ns : int }

val attribution : unit -> agg list
(** Aggregate {!phases} over every span; feeds the [span_phase_ns]
    histograms (once per span, however often this is called). *)

val pp_attribution : Format.formatter -> unit -> unit
(** The table2-style per-phase report. *)

val to_json : unit -> string
(** Span trees as a JSON array (ids, parentage, marks, phases). *)

val write_file : string -> unit
