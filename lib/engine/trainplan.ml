(* A committed cell train's journey as plain data, published once to the
   observers that synthesize output from plans (DESIGN.md §14). Each
   returns its own [undo]; after it runs, the observer's output for the
   kept prefix equals the per-cell path's, and the per-cell path
   re-performs the cut suffix for real. Times are virtual ns. *)

(* One switch stage and its output link: a trunk, or the destination's
   downlink at the last stage. *)
type stage = {
  sw : int;
  in_port : int;
  out_port : int;
  transit : int;
  arrivals : int array; (* cell i reaches the output link: ingress + transit *)
  starts : int array; (* cell i starts serializing on the output link *)
  cell_time : int; (* the output link's *)
  queue_after : float array; (* output-queue depth after accepting cell i *)
}

type t = {
  src : int;
  dst : int;
  vci : int; (* the sender-side (uplink) VCI *)
  n : int; (* one CS-PDU: cell n - 1 is its EOP *)
  up_accepts : int array;
  up_starts : int array;
  up_cell_time : int;
  up_drops : int array; (* planned TX-FIFO refusals, ascending *)
  stages : stage array; (* path order *)
  deliveries : int array; (* cell i reaches [dst]'s NI *)
}

(* The train was cut back to its first [keep] cells at [now]. *)
type undo = keep:int -> now:int -> unit

let no_undo ~keep:_ ~now:_ = ()

(* Planned refusals strictly before [now]: those a truncation at [now]
   keeps ([Link.truncate_hop] retracts the rest). *)
let drops_before p ~now =
  let k = ref 0 in
  while !k < Array.length p.up_drops && p.up_drops.(!k) < now do
    incr k
  done;
  !k
