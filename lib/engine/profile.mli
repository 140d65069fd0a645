(** One frame-stack profiler with two clocks, and collapsed-stack output.

    Layers {!push}/{!pop} named frames around regions that do work; one
    instrumentation site feeds both clocks.

    {b Virtual} attributes simulated time. The sites that account it (CPU
    charges, NI server occupancy) report it with {!charge} at the instant
    it is charged — before the implied sleep — so time spent by other
    processes while a frame's owner sleeps never lands in that frame.
    Stacks are per simulated host, each under a synthetic [host<N>] root
    whose exclusive time is the elapsed virtual time minus everything
    attributed beneath it (idle shows up rather than being hidden). NI
    occupancy is charged by {!Sync.Server}, per batch on the train path
    with refunds on split, so it does not pin the per-cell path.

    {b Wall} attributes the simulator's own monotonic time and GC
    allocation, charged at every transition (frame push/pop, event
    dispatch begin/end) to the node executing through the interval, so
    nothing is double-counted. One stack under an [engine] root whose
    depth-1 children are event kinds ([ev:<schedule label>]) and
    out-of-event frames; inter-event loop overhead is the root's exclusive
    time. It does not pin the per-cell path.

    In both trees the root's inclusive time equals {!elapsed} by
    construction. Process-global, off by default, one boolean test per
    call when disabled. *)

type clock = Virtual | Wall

val start : clock -> unit
(** Enable and clear; the elapsed origin is the clock's current time. *)

val stop : clock -> unit
(** Disable. For [Wall] also take a final charge, freeze {!elapsed} and
    fold per-layer [selfprof_wall_ns_total{layer}] /
    [selfprof_alloc_words_total{layer}] counters into [Metrics]. *)

val clear : clock -> unit
val enabled : clock -> bool

val elapsed : clock -> int
(** ns since {!start}: cumulative virtual time across simulator instances
    for [Virtual]; wall time, frozen by {!stop} (0 if never started), for
    [Wall]. *)

val push : ?host:int -> string -> unit
(** Enter a named frame on [host]'s virtual stack and on the wall stack,
    for whichever clocks are enabled. *)

val pop : ?host:int -> unit -> unit
(** Leave the innermost frame. Popping an empty stack only bumps
    {!unmatched_pops} (never raises) — on the wall clock that is the
    matching pop of a frame that slept across events. *)

val unmatched_pops : clock -> int

val alloc_words : unit -> float
(** Words allocated by the process so far, minor and major, promoted
    words counted once. Exact at any instant (the minor part includes the
    live minor heap), so the difference of two reads is the allocation
    of the work between them. *)

(** {2 Virtual clock} *)

val charge : ?host:int -> ?frames:string list -> int -> unit
(** [charge ~host ~frames ns] attributes [ns] of virtual time to the node
    reached by descending [frames] from the current top of [host]'s stack
    (creating nodes as needed). Call this synchronously where the time is
    charged, before any sleep. *)

val charge_root : ?host:int -> frames:string list -> int -> unit
(** Like {!charge} but always descends from the host root, ignoring the
    current stack — for asynchronous device time (NI servers) that should
    not nest under whatever application frame happens to be open. A
    negative charge is a refund of an earlier one. *)

val depth : host:int -> int
(** Current stack depth for a host (0 when balanced). *)

val hosts : unit -> int list

(** {2 Wall clock (driven by [Sim.step])} *)

val event_begin : label:string -> unit
(** An event thunk is about to run: open a fresh window under the
    [ev:<label>] kind node ([ev:event] when the label is empty). *)

val event_end : unit -> unit
(** The thunk returned: rewind frames it left open (counted in
    {!dangling}) and accumulate the per-kind event summary. *)

val dangling : unit -> int

val observe_pop_cost : int -> unit
(** Heap operations needed to surface one live event (tombstones skipped
    plus sift swaps). *)

val observe_batch : int -> unit
(** Number of events fired at one identical timestamp. *)

val pop_cost_hist : unit -> (int * int) list
(** (cost, occurrences); the last bucket absorbs all larger costs. *)

val pop_cost_mean : unit -> float
val batch_size_hist : unit -> (int * int) list
val batch_size_mean : unit -> float

val kind_summaries : unit -> (string * int * int * float) list
(** Per event kind: (label, events, wall ns, allocated words). Words are
    [minor + major - promoted], as in the tree. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable per-kind table plus queue histogram means. *)

val fold_metrics : unit -> unit
(** Fold per-layer wall/alloc counters into [Metrics] (done by {!stop}
    [Wall]; exposed for tests). *)

(** {2 Dumps} *)

val stacks : clock -> (string list * int) list
(** Every stack with its exclusive ns, deterministic order (children in
    creation order). Paths start at a [host<N>] root ([Virtual]) or at
    [engine] ([Wall]); each root line carries the residual unattributed
    time, so per root the exclusive times sum to {!elapsed}. *)

val alloc_stacks : unit -> (string list * int) list
(** The wall tree with exclusive allocated words as values. *)

val to_folded_string : clock -> string
(** Collapsed-stack ("folded") text: [frame;frame;... <ns>] per line, the
    format flamegraph.pl and speedscope ingest. *)

val write_folded : clock -> string -> unit
