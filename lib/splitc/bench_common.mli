(** Shared plumbing for the seven Split-C benchmarks of §6: deterministic
    data generation, timing collection, and the result record the Figure 5
    harness consumes. *)

type result = {
  name : string;
  total_us : float;  (** wall time: max over processors *)
  comm_us : float;  (** communication time: max over processors *)
  checked : bool;  (** output passed its correctness check *)
}

val pp : Format.formatter -> result -> unit

val finish :
  name:string -> checked:bool array -> (float * float) array -> result
(** Combine per-processor (total, comm) timings and checks. *)

val keys_for : rank:int -> n:int -> seed:int -> int array
(** Deterministic pseudo-random 30-bit keys for sort benchmarks (same
    stream for a given rank/seed on every machine). *)

val cycles_per_key_bucket : int
(** Charged per key when computing its destination bucket. *)

val cycles_per_key_sort : int
(** Charged per key per comparison level of a local sort. *)

val charge_local_sort : Runtime.ctx -> int -> unit
(** Account an [n log n] local sort. *)
