(** Engine throughput, the [engine-throughput] experiment: events,
    events per message and allocated words per event of the simulator's
    hot path, over fig4 at its maximum message size (PDU-heavy), a
    one-cell-per-message cell-storm (event-rate-heavy) and fig4 across a
    2x2x2 Clos. Every member is deterministic and carries a
    direction-aware {!Engine.Benchgate} gate; wall-clock throughput is
    the end-to-end benchmark's to measure. *)

type t

val workloads : quick:bool -> (string * int * (unit -> float)) list
(** Named thunks with their message count, each returning its
    virtual-time MB/s. *)

val run : quick:bool -> t
(** One measured pass per workload, with whatever observers are on. *)

val members : t -> (string * (float * Engine.Benchgate.gate)) list
(** Seven gated snapshot members per workload: events fired, events per
    message (a ratchet on the cell-train fast path, DESIGN.md §14),
    virtual bandwidth, latency p50/p99/p99.9 and allocated words per
    event. *)

val checks : t -> (string * bool) list
(** The train fast path keeps fig4max_raw at most a third of its
    pre-train event count. *)

val print : t -> unit
