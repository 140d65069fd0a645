(** An insertion-ordered buffer of pending records (train plan records,
    provisional path records), oldest first.

    Pushes append; {!filter_in_place} compacts in place and keeps the
    survivors in order. Once the backing array has grown to
    the live high-water mark, a steady state of pushes and retirements
    allocates nothing, and each operation costs the number of live
    elements, not the number ever pushed. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills unused slots; it is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append as the newest element. *)

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep the elements satisfying the predicate, in order. The predicate
    sees every element once, oldest first, so it may also update it. *)

val clear : 'a t -> unit
val to_list : 'a t -> 'a list
