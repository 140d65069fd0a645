(** Immutable-by-default slice/iovec views over byte stores.

    A [Buf.t] is an ordered list of spans, each a view [(store, off, len)]
    into a backing [bytes]. {!sub}, {!concat} and {!iter_spans} never copy:
    they only rearrange views. The only way data moves is through the
    explicit {!copy_into} / {!to_bytes} / {!copy} operations, each of which
    is counted in {!Metrics} under the caller-supplied [layer] label
    ([buf_copies_total{layer}] and [buf_copy_bytes_total{layer}]), so every
    data-path copy in the simulator is visible in the metrics dump.

    Counting is deliberately separate from virtual-time cost: the calibrated
    per-cell and per-operation costs of the NI models already include the
    time the real hardware spends moving bytes (see DESIGN.md, "Buffer
    ownership and copy accounting"). Layers that charge copy time explicitly
    keep doing so via [Host.Cpu.charge_copy] next to the counted copy.

    Views alias their backing store: a writer mutating the store is visible
    through every view. Ownership rules — who may retain a view and when a
    snapshot ({!copy}) is mandatory — are documented in DESIGN.md. *)

type t

val empty : t

val of_bytes : bytes -> t
(** View over the whole of [b]; no copy. The caller must not mutate [b]
    while the view is live unless it owns every view. *)

val of_bytes_sub : bytes -> pos:int -> len:int -> t
(** View over [b.[pos .. pos+len-1]]; no copy. *)

val of_string : string -> t
(** Copies the (immutable) string once into a fresh store; uncounted, as
    strings cannot be aliased mutably. Intended for test fixtures. *)

val alloc : int -> t
(** A fresh zero-filled store of the given length, viewed whole. *)

val length : t -> int
val is_empty : t -> bool

val sub : t -> pos:int -> len:int -> t
(** Zero-copy sub-view. Raises [Invalid_argument] when out of range. A
    view inside one span allocates one span; the whole of [t] is [t]. *)

val concat : t list -> t
(** Zero-copy concatenation (adjacent views over the same store fuse). *)

val append : t -> t -> t

(** {1 Fused accumulation}

    An accumulator collects views in order and fuses as it goes: a view
    that continues the newest span on the same store extends that span in
    place, so appending the cells of one PDU cut from a few stores
    allocates only at store boundaries. The result equals {!concat} of
    the added views, span for span. *)

type acc

val acc_create : unit -> acc
val acc_add : acc -> t -> unit
val acc_length : acc -> int
(** Bytes added since the last {!acc_take} or {!acc_clear}. *)

val acc_take : acc -> t
(** The accumulated view; the accumulator is left empty. *)

val acc_clear : acc -> unit

val spans : t -> (bytes * int * int) list
(** The underlying spans, in order; no copy. *)

val iter_spans : t -> (bytes -> pos:int -> len:int -> unit) -> unit
val fold_spans : t -> init:'a -> f:('a -> bytes -> pos:int -> len:int -> 'a) -> 'a

val get_uint8 : t -> int -> int
val get_uint16_be : t -> int -> int
val get_uint16_le : t -> int -> int
val get_uint32_be : t -> int -> int32
val get_uint32_le : t -> int -> int32

val equal : t -> t -> bool
(** Content equality, span-shape independent. *)

val equal_bytes : t -> bytes -> bool

val pp : Format.formatter -> t -> unit
(** Shape summary (length and span count), not contents. *)

(** {1 Counted copies}

    Each call below counts one copy of [length t] bytes against
    [buf_copies_total{layer}] / [buf_copy_bytes_total{layer}]. *)

val copy_into : layer:string -> t -> dst:bytes -> dst_pos:int -> unit
(** Materialize the view into [dst] starting at [dst_pos]. *)

val to_bytes : layer:string -> t -> bytes
(** Materialize into a fresh contiguous [bytes]. *)

val copy : layer:string -> t -> t
(** Snapshot: fresh stores holding the current contents, contiguous up
    to 2016 bytes and cut into 2016-byte stores beyond (each small
    enough for the minor heap; a multiple of the 48-byte cell payload).
    The result no longer aliases the source stores. *)

val blit_bytes :
  layer:string -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int ->
  len:int -> unit
(** Counted [Bytes.blit] for the few places that copy between raw stores
    (e.g. staging into a communication segment). *)

val copies_total : unit -> int
(** Sum of [buf_copies_total] across all layers (for tests and checks). *)

val copy_bytes_total : unit -> int
(** Sum of [buf_copy_bytes_total] across all layers. *)
