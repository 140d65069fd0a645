(** Synchronization primitives for simulated processes, plus an event-driven
    FIFO server used to model serially-shared hardware (an i960 NI processor,
    a DMA engine, a CPU). *)

(** Unbounded FIFO mailbox. [recv] blocks the calling process until a value
    is available. *)
module Mailbox : sig
  type 'a t

  val create : Sim.t -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  val length : 'a t -> int

  val recv_timeout : 'a t -> timeout:Sim.time -> 'a option
  (** Like {!recv} but gives up after [timeout] ns, returning [None]. *)
end

(** Counting semaphore. *)
module Semaphore : sig
  type t

  val create : Sim.t -> int -> t
  val acquire : t -> unit
  val try_acquire : t -> bool
  val release : t -> unit
  val available : t -> int
end

(** Broadcast condition: processes wait; a broadcast wakes all current
    waiters. Waiters must re-check their predicate in a loop. *)
module Condition : sig
  type t

  val create : Sim.t -> t
  val wait : t -> unit
  val broadcast : t -> unit

  val wait_for : t -> (unit -> bool) -> unit
  (** [wait_for c pred] returns immediately if [pred ()]; otherwise blocks on
      [c], re-checking [pred] after each broadcast. *)

  val waiters : t -> int
end

(** An event-driven serial server: jobs are executed one at a time in FIFO
    order, each occupying the server for its service cost, then invoking its
    completion callback. This models hardware that processes one unit of work
    at a time without needing a coroutine. It is where NI occupancy is
    accounted, once: busy time, and the virtual clock of {!Profile}. *)
module Server : sig
  type t

  val create : ?owner:int * string list -> Sim.t -> t
  (** [owner] is a profile host and frame prefix: a job submitted with a
      [stage] is charged to [host<N>;prefix;stage] from the host root. *)

  val submit : t -> ?stage:string -> cost:Sim.time -> (unit -> unit) -> unit
  (** Enqueue a job taking [cost] ns of server time; [k] runs at completion.
      If a batch (below) is active it is dissolved first, so plain jobs
      always observe and produce exactly the per-cell schedule. *)

  val busy : t -> bool
  val queue_length : t -> int

  val busy_time : t -> Sim.time
  (** Total time the server has spent serving jobs (utilization numerator). *)

  (** {2 Train batches (DESIGN.md §14)}

      A batch replaces a run of per-cell jobs with one precomputed schedule
      and a single completion event. Batches exist only while nothing else
      touches the server: any plain {!submit} splits the batch back into
      real jobs, events and exact cost accounting at the interference
      instant, so observable state is byte-identical with the per-cell
      path. *)

  val idle : t -> bool
  (** No job running, empty queue, no batch — the precondition for starting
      a tx chain. *)

  (** Where a split tx chain was interrupted; the payload is the absolute
      instant the NI's re-entry continuation anchors to. *)
  type chain_phase =
    | Chain_first of Sim.time
        (** fixed-cost setup job in flight, completes at the payload *)
    | Chain_unit of Sim.time
        (** per-cell unit job in flight, completes at the payload *)
    | Chain_gap of Sim.time
        (** between refused link attempts; the pending cell's first attempt
            was at the payload, retries every caller-known step *)

  val begin_chain :
    t ->
    ?stages:string * string ->
    ?done_sched:Sim.time ->
    first_end:Sim.time ->
    unit_cost:Sim.time ->
    accepts:Sim.time array ->
    on_done:(unit -> unit) ->
    on_split:(accepted:int -> phase:chain_phase -> unit) ->
    unit ->
    unit
  (** Start a tx chain on an {!idle} server: a setup job ending at
      [first_end], then one [unit_cost] job per cell whose link acceptance
      lands at [accepts.(i)]. [on_done] fires at [accepts.(n-1)] with the
      server released; [on_split] re-enters the per-cell path — it must
      truncate the train to [accepted] cells and resume from [phase],
      calling {!resume_inflight} for the in-flight phases. Costs (profiled
      as the setup and unit [stages]) are charged eagerly and refunded on
      split for exactly the units the per-cell path will re-charge.
      [done_sched] is the instant the per-cell path would have created the
      event performing the final acceptance; the completion is trampolined
      through an event created there so same-instant ties against it
      resolve as on the per-cell path. *)

  type paced

  val submit_paced :
    t ->
    stage:string ->
    cost:Sim.time ->
    n:int ->
    arrivals:Sim.time array ->
    action:(int -> unit) ->
    paced option
  (** Model [n] [cost] jobs, one per cell, the i-th arriving at
      [arrivals.(i)] (nondecreasing, first >= now; entries past [n] are
      ignored) and starting when both arrived and the previous unit is
      done; [action i] runs for each unit in order at the last unit's
      completion with the server held busy. Only the final unit's action
      may submit further work. Returns [None] (caller falls back to per-cell)
      unless the queue is empty and no batch is active; the server may
      still be finishing one plain job, which the schedule chains off. A
      split refunds only the units still to arrive: they re-{!submit}. *)

  val truncate_paced : t -> paced -> keep:int -> unit
  (** The modeled train was truncated upstream: keep only the first [keep]
      units (all strictly future), refund the cut ones and re-arm
      completion. No-op if the batch already dissolved. *)

  val resume_inflight : t -> until:Sim.time -> k:(unit -> unit) -> unit
  (** Re-arm a real in-flight job completing at [until] whose cost a split
      batch already charged; [k] runs at completion, then the queue drains
      normally. *)

  val interfere : t -> unit
  (** Dissolve any active batch back into the per-cell path right now,
      without submitting anything. Links run this before threading a plain
      cell through planned state (the owner registered it via
      {!Atm.Link.set_interfere}). No-op when no batch is active. *)
end
