(** Bench-snapshot comparison rules (the logic behind [bin/benchdiff]).

    A global symmetric tolerance covers the deterministic virtual-time
    members (curve points, checks, copy counters); per-metric {!gate}s —
    declared in the baseline snapshot's top-level ["gates"] object — add
    per-member tolerances, direction-aware where only movement in the
    bad direction is a regression and an improvement of any size must
    pass. *)

type direction =
  | Lower_is_better  (** flag only increases (events/PDU, allocs/event) *)
  | Higher_is_better  (** flag only decreases (bandwidth) *)
  | Both  (** symmetric, like the global tolerance *)

type gate = { g_tolerance : float; g_direction : direction }

val direction_name : direction -> string
val direction_of_name : string -> direction option

val gate_json : gate -> Json.t
val gates_json : (string * gate) list -> Json.t
(** The ["gates"] object a snapshot writer embeds. *)

val gates_of_json : Json.t -> (string * gate) list
(** Parse a snapshot's ["gates"] member (missing/malformed entries are
    skipped). *)

val violates : gate -> baseline:float -> current:float -> bool
(** Movement from [baseline] to [current] in the gate's bad direction
    beyond its tolerance. *)

val signed_delta : float -> float -> float
(** Relative drift, positive when current exceeds baseline. *)

val rel_delta : float -> float -> float

val diff : tolerance:float -> Json.t -> Json.t -> string list
(** [diff ~tolerance baseline current] returns one message per flagged
    value: failed checks, drifted/missing curve points (symmetric,
    global tolerance), violated baseline gates (direction-aware), and
    drifted copy counters (unless a gate names them). Empty means the
    snapshots agree. *)

val metric_rows :
  Json.t -> Json.t -> (string * float option * float option) list
(** Side-by-side top-level numeric members for display. *)

val series : Json.t -> (string * (float * float) list) list
val checks : Json.t -> (string * bool) list
val numeric : string -> Json.t -> float option
