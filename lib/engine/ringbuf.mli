(** A first-in first-out queue in a growable circular array.

    Once the array has grown to the live high-water mark, pushes and pops
    allocate nothing (a [Stdlib.Queue] allocates a cell per push). A
    component whose events complete in the order it scheduled them keeps
    its in-flight items here and schedules one thunk, made once, that pops
    the oldest (DESIGN.md §13). *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills unused slots; it is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append as the newest element. *)

val pop : 'a t -> 'a
(** Remove and return the oldest element. Raises [Invalid_argument] when
    empty. *)
