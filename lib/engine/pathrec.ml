(* Per-PDU path records (DESIGN.md §17).

   The store is two pools: [pending] holds provisional records in commit
   order with their settle instants (train synthesis runs at commit time,
   before the cells exist on the wire; a delivered journey settles at its
   delivery), [settled] is a bounded FIFO of irrevocable ones.
   Settling is what feeds the per-hop-position latency sketches, so a
   truncated train's discarded records never leave a trace — the same
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
  r_injected : Sim.time;
  r_delivered : Sim.time;
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
let settled = Fifo.create ~dummy

let n_settled = ref 0
let n_dropped = ref 0

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
  Fifo.clear settled;
  n_settled := 0;
  n_dropped := 0;
  Hashtbl.iter (fun _ s -> Metrics.Sketch.clear s) hop_sketches

let add ~settle r = Fifo.push pending (settle, r)
let discard r = Fifo.filter_in_place (fun (_, r') -> r' != r) pending

let settle_one r =
  Array.iteri
    (fun pos h ->
      Metrics.Sketch.observe (hop_sketch pos) (float_of_int h.h_latency_ns))
    r.r_hops;
  Fifo.push settled r;
  incr n_settled;
  if Fifo.length settled > capacity then begin
    (* drop the oldest settled record; the ring keeps the recent past *)
    ignore (Fifo.remove_first (fun _ -> true) settled : record option);
    incr n_dropped
  end

let fold ~now =
  Fifo.filter_in_place
    (fun (s, r) ->
      if s <= now then settle_one r;
      s > now)
    pending

(* One provisional record per EOP cell, stamped at the instants the
   per-cell path would: hop latency is forwarding instant minus the
   previous stage's (or the injection), and the queue depth found at
   arrival is the depth just after acceptance minus the cell itself,
   floored when it went straight to the wire. *)
let on_train ~now ~seq (p : Trainplan.t) =
  if not !enabled_flag then Trainplan.no_undo
  else begin
    (* settle as the run goes, as links and switches fold, so the pool
       holds only records still ahead of the clock; only those strictly
       before [now]: a truncation at [now] still cuts records settling
       at [now] *)
    fold ~now:(now - 1);
    let recs =
      Array.map
        (fun i ->
          let r_seq = !seq in
          incr seq;
          let injected = p.up_accepts.(i) in
          let hops =
            Array.mapi
              (fun j (st : Trainplan.stage) ->
                let prev =
                  if j = 0 then injected else p.stages.(j - 1).arrivals.(i)
                in
                {
                  h_stage = st.sw;
                  h_in_port = st.in_port;
                  h_out_port = st.out_port;
                  h_queue = max 0 (int_of_float st.queue_after.(i) - 1);
                  h_latency_ns = st.arrivals.(i) - prev;
                })
              p.stages
          in
          let r =
            {
              r_src = p.src;
              r_dst = p.dst;
              r_vci = p.vci;
              r_seq;
              r_injected = injected;
              r_delivered = p.deliveries.(i);
              r_hops = hops;
            }
          in
          add ~settle:injected r;
          (i, r))
        p.eops
    in
    let hi = ref !seq in
    fun ~keep ~now:_ ->
      let cut = List.filter (fun (i, _) -> i >= keep) (Array.to_list recs) in
      List.iter (fun (_, r) -> discard r) cut;
      (* hand the cut records' sequence numbers back, unless a later
         injection on the flow consumed one *)
      match cut with
      | (_, r) :: _ when !seq = !hi ->
          seq := r.r_seq;
          hi := r.r_seq
      | _ -> ()
  end

(* The per-cell path: the journey rides the PDU's EOP cell, so each stamp
   lands on its own PDU whatever the fabric loses, duplicates or
   reorders. [j_next] is the hop the journey expects next; a duplicate
   arriving at a hop already stamped, or delivered after the original,
   finds it moved on. *)
type journey = {
  j_src : int;
  j_dst : int;
  j_vci : int;
  mutable j_seq : int;
  j_injected : Sim.time;
  mutable j_last : Sim.time; (* previous forwarding (or injection) instant *)
  mutable j_hops : hop list; (* most-recent-first *)
  mutable j_next : int; (* hops stamped so far; -1 once sealed *)
}

let inject ~src ~dst ~vci ~now =
  {
    j_src = src;
    j_dst = dst;
    j_vci = vci;
    j_seq = -1;
    j_injected = now;
    j_last = now;
    j_hops = [];
    j_next = 0;
  }

let number j ~seq =
  j.j_seq <- !seq;
  incr seq

let stamp j ~hop ~stage ~in_port ~out_port ~queue ~now =
  if j.j_next = hop then begin
    j.j_hops <-
      {
        h_stage = stage;
        h_in_port = in_port;
        h_out_port = out_port;
        h_queue = queue;
        h_latency_ns = now - j.j_last;
      }
      :: j.j_hops;
    j.j_next <- hop + 1;
    j.j_last <- now
  end

let deliver j ~now =
  if j.j_next >= 0 then begin
    j.j_next <- -1;
    fold ~now:(now - 1);
    add ~settle:now
      {
        r_src = j.j_src;
        r_dst = j.j_dst;
        r_vci = j.j_vci;
        r_seq = j.j_seq;
        r_injected = j.j_injected;
        r_delivered = now;
        r_hops = Array.of_list (List.rev j.j_hops);
      }
  end

let count () = !n_settled
let dropped () = !n_dropped

let records () =
  List.sort
    (fun a b ->
      match compare a.r_delivered b.r_delivered with
      | 0 -> (
          match compare a.r_src b.r_src with
          | 0 -> (
              match compare a.r_vci b.r_vci with
              | 0 -> compare a.r_seq b.r_seq
              | c -> c)
          | c -> c)
      | c -> c)
    (Fifo.to_list settled)

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
         ("dropped", Json.Num (float_of_int !n_dropped));
       ])
