(** The Split-C-style runtime core (§6) over an Active-Message transport: one
    thread of control per processor, a global address space of registered
    arrays addressed as (processor, array id, index), blocking reads/writes
    (what dereferencing a global pointer compiles to), one-way stores with
    the two-values-per-message packing the paper's sample sort uses, bulk
    transfers, barriers and reductions.

    Communication time is instrumented per processor: every blocking
    runtime call and every poll adds to the processor's comm counter, so
    benchmarks can report the computation/communication split of Figure 5. *)

type ctx

val rank : ctx -> int
val nprocs : ctx -> int
val sim : ctx -> Engine.Sim.t

val run : Transport.t array -> (ctx -> 'a) -> 'a array
(** Spawn one program instance per processor and drive the simulation to
    completion; results are indexed by rank. *)

(** {2 Time accounting} *)

val charge : ctx -> cycles:int -> unit
(** Account local computation (in machine cycles). *)

val elapsed_us : ctx -> float
(** Simulated time since this processor entered the program. *)

val comm_us : ctx -> float
(** Time this processor has spent in communication (blocking runtime calls
    and message handling). *)

(** {2 Element kinds}

    Global arrays hold [int]s or [float]s, each sent as 8 bytes on the wire;
    every typed operation below takes the kind it works on. *)

type _ elt = Int : int elt | Float : float elt

(** {2 Collectives} *)

val barrier : ctx -> unit

type op = Sum | Min | Max

val reduce : ctx -> 'a elt -> op -> 'a -> 'a
(** All-reduce: every processor contributes and receives the result. *)

val broadcast_ints : ctx -> root:int -> int array -> int array
(** Root's array reaches everyone (others pass a same-length buffer). *)

(** {2 Global arrays}

    Arrays are registered under small integer ids, one table per kind;
    every processor registers its local part under the same id (SPMD
    style). *)

val register : ctx -> 'a elt -> id:int -> 'a array -> unit

val read : ctx -> 'a elt -> proc:int -> arr:int -> idx:int -> 'a
(** Blocking global-pointer dereference: request + reply. *)

val write : ctx -> 'a elt -> proc:int -> arr:int -> idx:int -> 'a -> unit
(** Blocking remote write (acknowledged). *)

(** {2 One-way stores} *)

val store_pair : ctx -> proc:int -> buf:int -> int -> int -> unit
(** Append two values to a remote append-buffer — the paper's small-message
    sample-sort permutation packs exactly two values per message. *)

val register_append_buffer : ctx -> id:int -> unit
val append_buffer_contents : ctx -> id:int -> int array

val store : ctx -> 'a elt -> proc:int -> arr:int -> pos:int -> 'a array -> unit
(** One-way bulk store into a remote array (chunked to the transport's
    payload limit). Complete after {!all_store_sync}. *)

val all_store_sync : ctx -> unit
(** Global completion of all outstanding stores: flush + barrier. *)

(** {2 Bulk gets} *)

type 'a pending

val get_async :
  ctx -> 'a elt -> proc:int -> arr:int -> pos:int -> len:int -> 'a array pending
(** Split-phase get, for overlapping communication with computation (the
    paper's matrix multiply prefetches the next blocks this way). *)

val await : ctx -> 'a pending -> 'a
(** Poll until the split-phase operation completes; returns its result. *)

val get : ctx -> 'a elt -> proc:int -> arr:int -> pos:int -> len:int -> 'a array
(** [await] of [get_async]. *)
