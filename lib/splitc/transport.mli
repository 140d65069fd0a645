(** The Active-Message transport a Split-C runtime instance runs on: either
    real U-Net Active Messages over the simulated ATM cluster, or a
    parameterized model of a parallel machine's network (see
    {!Machine_model}), so the same benchmark code runs on all three
    machines of Table 2. *)

type reply_fn =
  handler:int -> ?args:int array -> ?payload:Engine.Buf.t -> unit -> unit

type handler =
  src:int -> reply:reply_fn option -> args:int array -> payload:Engine.Buf.t -> unit

type t = {
  rank : int;
  nodes : int;
  max_payload : int;  (** largest single-message payload *)
  sim : Engine.Sim.t;
  register : int -> handler -> unit;
  request :
    dst:int ->
    handler:int ->
    ?args:int array ->
    ?payload:Engine.Buf.t ->
    unit ->
    unit;
  poll_until : (unit -> bool) -> unit;
  flush : unit -> unit;
      (** wait until every message this node sent has been processed *)
  charge_cycles : int -> unit;
      (** local computation cost, in this machine's own cycles *)
}

val of_uam : Uam.t -> t
(** Wrap a connected UAM instance (the U-Net ATM cluster of Table 2). *)
