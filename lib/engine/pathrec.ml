(* Per-PDU path records (DESIGN.md §17): the path view of sealed hop
   journals ({!Journal}).

   The store is two pools: [pending] holds provisional records in seal
   order with their settle instants (a committed train's record is sealed
   at commit time, before the cells exist on the wire; a delivered
   journal's at its delivery), [settled] is a bounded ring of irrevocable
   ones. Settling is what feeds the per-hop-position latency sketches, so
   a truncated train's discarded records never leave a trace — the same
   lazy-fold discipline the link and switch counters use. *)

type hop = {
  h_stage : int;
  h_in_port : int;
  h_out_port : int;
  h_queue : int;
  h_latency_ns : int;
}

type record = {
  r_src : int;
  r_dst : int;
  r_vci : int;
  r_seq : int;
  r_injected : int;
  r_delivered : int;
  r_hops : hop array;
}

let enabled_flag = ref false
let capacity = 65_536

let dummy =
  {
    r_src = 0;
    r_dst = 0;
    r_vci = 0;
    r_seq = 0;
    r_injected = 0;
    r_delivered = 0;
    r_hops = [||];
  }

(* provisional, oldest first; commit order is already settle order per
   flow, and [fold] filters by instant, so no sort is needed *)
let pending = Fifo.create ~dummy:(0, dummy)

(* the newest [capacity] settled records, oldest first *)
let settled : record Queue.t = Queue.create ()

let n_settled = ref 0

(* per-hop-position latency sketches, registered on first use so runs
   without path records keep their metric dumps unchanged *)
let hop_sketches : (int, Metrics.Sketch.t) Hashtbl.t = Hashtbl.create 8

let hop_sketch pos =
  match Hashtbl.find_opt hop_sketches pos with
  | Some s -> s
  | None ->
      let s =
        Metrics.sketch
          ~help:"per-PDU latency across one switch stage, by hop position"
          "atm_path_hop_latency_ns"
          [ ("hop", string_of_int pos) ]
      in
      Hashtbl.add hop_sketches pos s;
      s

let start () = enabled_flag := true
let stop () = enabled_flag := false
let enabled () = !enabled_flag

let clear () =
  Fifo.clear pending;
  Queue.clear settled;
  n_settled := 0;
  Hashtbl.iter (fun _ s -> Metrics.Sketch.clear s) hop_sketches

let add ~settle r = Fifo.push pending (settle, r)
let discard r = Fifo.filter_in_place (fun (_, r') -> r' != r) pending

let settle_one r =
  Array.iteri
    (fun pos h ->
      Metrics.Sketch.observe (hop_sketch pos) (float_of_int h.h_latency_ns))
    r.r_hops;
  Queue.push r settled;
  incr n_settled;
  (* drop the oldest settled record; the ring keeps the recent past *)
  if Queue.length settled > capacity then ignore (Queue.take settled : record)

let fold ~now =
  Fifo.filter_in_place
    (fun (s, r) ->
      if s <= now then settle_one r;
      s > now)
    pending

let count () = !n_settled
let dropped () = !n_settled - Queue.length settled

let records () =
  let key r = (r.r_delivered, r.r_src, r.r_vci, r.r_seq) in
  List.sort
    (fun a b -> compare (key a) (key b))
    (List.of_seq (Queue.to_seq settled))

let hop_quantile ~hop q =
  match Hashtbl.find_opt hop_sketches hop with
  | Some s when Metrics.Sketch.count s > 0 -> Some (Metrics.Sketch.quantile s q)
  | _ -> None

let json_of_record r =
  let open Json in
  Obj
    [
      ("src", Num (float_of_int r.r_src));
      ("dst", Num (float_of_int r.r_dst));
      ("vci", Num (float_of_int r.r_vci));
      ("seq", Num (float_of_int r.r_seq));
      ("injected_ns", Num (float_of_int r.r_injected));
      ("delivered_ns", Num (float_of_int r.r_delivered));
      ( "hops",
        List
          (Array.to_list
             (Array.map
                (fun h ->
                  Obj
                    [
                      ("stage", Num (float_of_int h.h_stage));
                      ("in_port", Num (float_of_int h.h_in_port));
                      ("out_port", Num (float_of_int h.h_out_port));
                      ("queue", Num (float_of_int h.h_queue));
                      ("latency_ns", Num (float_of_int h.h_latency_ns));
                    ])
                r.r_hops)) );
    ]

let write_json path =
  Json.write_file path
    (Json.Obj
       [
         ("records", Json.List (List.map json_of_record (records ())));
         ("dropped", Json.Num (float_of_int (dropped ())));
       ])
