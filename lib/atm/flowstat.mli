(** Per-flow, per-hop fabric accounting (DESIGN.md §17).

    A flow is one direction of a connection: (source host, destination
    host, the VCI chain the route rides — uplink VCI, then the relabel on
    each trunk and the downlink). The fabric registers flows at route
    installation and counts every cell crossing every stage into them.

    Two regimes keep a 1024-endpoint incast from allocating a million
    counters: the first [exact_flows] registered flows get exact per-hop
    tables (cells/bytes/drops/retransmits per switch stage, exported as
    [atm_flow_*{flow,hop}] metrics); every flow, exact or not, also feeds
    a Space-Saving top-[k] heavy-hitter sketch of bytes offered at the
    ingress stage, whose estimates obey [est >= true >= est - err].

    Enabling is global ({!configure}), like fault injection: each
    {!Network.create_topo} builds a per-fabric instance when active.
    Accounting is observational only — per-cell counting rides each
    stage's route entry and train commits fold whole trains in
    O(stages) — so it never pins the train fast path. *)

(** {2 Space-Saving top-K} *)

module Topk : sig
  type 'a t

  val create : k:int -> 'a t

  val offer : 'a t -> 'a -> int -> unit
  (** Add [weight] to the key's estimate, evicting the minimum-estimate
      entry when a new key arrives at capacity (the classic Space-Saving
      step: the newcomer inherits the evictee's estimate as its error).
      Negative weights decrement a present key (train truncation undo)
      and are dropped on absent keys. *)

  val entries : 'a t -> ('a * int * int) list
  (** [(key, estimate, error)] sorted by estimate descending, ties in key
      order. For every
      key, [estimate >= true count]; if the key was never evicted,
      [estimate - error <= true count]. Any key with true count
      > total/k is guaranteed present. *)
end

(** {2 Global switch} *)

val configure : ?exact_flows:int -> ?k:int -> unit -> unit
(** Enable flow accounting for fabrics created afterwards: exact per-hop
    tables for the first [exact_flows] flows (default 1024), a top-[k]
    sketch over all of them (default 16). *)

val disable : unit -> unit

val active : unit -> bool

(** {2 Per-fabric instance (used by [Network])} *)

type t
type flow

val create : unit -> t
(** A fresh instance with the configured limits. *)

val register :
  t -> src:int -> dst:int -> vcis:int array -> flow
(** Called at route installation; [vcis.(0)] is the uplink VCI and the
    array length is the number of switch stages the route crosses. *)

val count : t -> flow -> hop:int -> cells:int -> unit
(** [cells] cells (48 payload bytes each) forwarded by stage [hop];
    negative to un-count a truncated train's cut suffix. *)

val drop : t -> flow -> hop:int -> unit
(** One cell lost entering stage [hop]: a switch queue or port-fault drop
    there, an injected loss inside the uplink ([hop] 0) or trunk feeding
    it, or the host FIFO refusing the cell bound for stage 0. A cell lost
    inside the downlink counts at the last stage, which forwarded it. *)

val on_train : t -> flow -> Engine.Trainplan.t -> Engine.Trainplan.undo
(** Count a committed train into every stage of its flow and charge its
    planned uplink refusals as hop-0 drops. The undo un-counts the cut
    suffix and the refusals the truncation retracts. *)

val note_retx : t -> src:int -> vci:int -> unit
(** One PDU retransmitted on the flow sending from [src] on uplink
    [vci]; attributed to hop 0. No-op for unregistered flows. *)

(** {2 Reading (atlas, experiments)} *)

val flow_label : flow -> string
(** ["src:dst:vci0,vci1,..."] — the flow's metric label value (colons
    and commas exercise the dump escapers on purpose). *)

val flow_src : flow -> int
val flow_dst : flow -> int
val flow_vcis : flow -> int array

val flow_hops : flow -> (int * int * int * int) array option
(** Per-stage (cells, bytes, drops, retx) — [None] for flows past the
    exact-table threshold. *)

val flows : t -> flow list
(** Registration order. *)

val exact_flows : t -> int
(** How many got exact tables. *)

val top : t -> (flow * int * int) list
(** Heavy hitters by ingress bytes: [(flow, estimated bytes, error)]
    sorted descending. *)

val find : t -> src:int -> vci:int -> flow option
