(* The per-PDU hop journal (DESIGN.md §17). Span's fabric milestones and
   Pathrec's records are both computed from its fields, so the two cannot
   disagree about a PDU. *)

let unset = min_int

type hop = {
  stage : int;
  in_port : int;
  switch_in : int;
  mutable out_port : int;
  mutable link : int; (* the output link's id *)
  mutable queue : int;
  mutable forward : int;
  mutable link_start : int;
}

type t = {
  mutable src : int;
  mutable dst : int;
  mutable vci : int;
  mutable seq : int; (* -1: no path record *)
  mutable injected : int;
  mutable up_start : int;
  mutable hops : hop array; (* path order *)
  mutable delivered : int;
  mutable dropped : int;
}

let latest f j = Array.fold_left (fun acc h -> max acc (f h)) unset j.hops

(* The span view. *)
let span_mark j (m : Span.mark) =
  let t =
    match m with
    | Injected -> j.injected
    | Link_tx -> max j.up_start (latest (fun h -> h.link_start) j)
    | Switch_in -> latest (fun h -> h.switch_in) j
    | Switch_out -> latest (fun h -> h.forward) j
    | Rx_cell -> j.delivered
    | Dropped -> j.dropped
    | Doorbell | Nic_tx | Demuxed | Popped | Dispatched -> unset
  in
  if t = unset then None else Some t

let create ?ctx () =
  let j =
    {
      src = 0;
      dst = 0;
      vci = 0;
      seq = -1;
      injected = unset;
      up_start = unset;
      hops = [||];
      delivered = unset;
      dropped = unset;
    }
  in
  if Span.enabled () then Span.attach ctx (span_mark j);
  j

(* The path view, sealed as a provisional record settling at [settle]. *)
let seal j ~settle =
  let prev k = if k = 0 then j.injected else j.hops.(k - 1).forward in
  let r =
    {
      Pathrec.r_src = j.src;
      r_dst = j.dst;
      r_vci = j.vci;
      r_seq = j.seq;
      r_injected = j.injected;
      r_delivered = j.delivered;
      r_hops =
        Array.mapi
          (fun k h ->
            {
              Pathrec.h_stage = h.stage;
              h_in_port = h.in_port;
              h_out_port = h.out_port;
              h_queue = h.queue;
              h_latency_ns = h.forward - prev k;
            })
          j.hops;
    }
  in
  Pathrec.add ~settle r;
  r

let number j ~src ~dst ~vci ~seq =
  j.src <- src;
  j.dst <- dst;
  j.vci <- vci;
  j.seq <- !seq;
  incr seq

(* --- per-cell stamps -------------------------------------------------- *)

let inject j = Option.iter (fun j -> j.injected <- Clock.now ()) j

let hop_at j stage = Array.find_opt (fun h -> h.stage = stage) j.hops

let switch_in j ~stage ~in_port =
  match j with
  | Some j when hop_at j stage = None ->
      let h =
        {
          stage;
          in_port;
          switch_in = Clock.now ();
          out_port = -1;
          link = -1;
          queue = 0;
          forward = unset;
          link_start = unset;
        }
      in
      j.hops <- Array.append j.hops [| h |]
  | _ -> ()

let forward j ~stage ~out_port ~link ~queue =
  match j with
  | None -> ()
  | Some j -> (
      match hop_at j stage with
      | Some h when h.forward = unset ->
          h.out_port <- out_port;
          h.link <- link;
          h.queue <- queue;
          h.forward <- Clock.now ()
      | _ -> ())

(* a link no hop forwards onto is the uplink, which the EOP cell crosses
   before it reaches any switch *)
let link_start j ~link ~at =
  match j with
  | Some j -> (
      match Array.find_opt (fun h -> h.link = link) j.hops with
      | Some h -> if h.link_start = unset then h.link_start <- at
      | None -> if j.up_start = unset then j.up_start <- at)
  | None -> ()

let drop j = Option.iter (fun j -> j.dropped <- Clock.now ()) j

let deliver j =
  match j with
  | Some j when j.delivered = unset ->
      j.delivered <- Clock.now ();
      if j.seq >= 0 then begin
        Pathrec.fold ~now:(j.delivered - 1);
        ignore (seal j ~settle:j.delivered : Pathrec.record)
      end
  | _ -> ()

(* --- committed trains ------------------------------------------------- *)

(* the first [k] planned refusals stand *)
let keep_drops j (p : Trainplan.t) k =
  j.dropped <- (if k = 0 then unset else p.up_drops.(k - 1))

let of_plan (p : Trainplan.t) j ~seq =
  let i = p.n - 1 in
  j.injected <- p.up_accepts.(i);
  j.up_start <- p.up_starts.(i);
  j.hops <-
    Array.map
      (fun (st : Trainplan.stage) ->
        {
          stage = st.sw;
          in_port = st.in_port;
          switch_in = st.arrivals.(i) - st.transit;
          out_port = st.out_port;
          link = -1;
          (* the depth after acceptance less the cell itself, floored
             when it went straight to the wire *)
          queue = max 0 (int_of_float st.queue_after.(i) - 1);
          forward = st.arrivals.(i);
          link_start = st.starts.(i);
        })
      p.stages;
  j.delivered <- p.deliveries.(i);
  let live_drops = ref (Array.length p.up_drops) in
  keep_drops j p !live_drops;
  let sealed =
    match seq with
    | None -> None
    | Some seq ->
        (* settle as the run goes, but only strictly before now: a
           truncation at now still cuts records settling at now *)
        Pathrec.fold ~now:(Clock.now () - 1);
        number j ~src:p.src ~dst:p.dst ~vci:p.vci ~seq;
        Some (seal j ~settle:j.injected, !seq)
  in
  let cut = ref false in
  fun ~keep ~now ->
    if keep <= i && not !cut then begin
      (* the EOP was cut: the per-cell path re-stamps what really happens
         to it; its sequence number goes back unless a later injection on
         the flow consumed one *)
      cut := true;
      (match (sealed, seq) with
      | Some (r, hi), Some seq ->
          Pathrec.discard r;
          if !seq = hi then seq := r.r_seq
      | _ -> ());
      j.seq <- -1;
      j.injected <- unset;
      j.up_start <- unset;
      j.hops <- [||];
      j.delivered <- unset
    end;
    let k = Trainplan.drops_before p ~now in
    if k < !live_drops then begin
      (* a message refused on both sides of the cut keeps its last refusal
         before it *)
      keep_drops j p k;
      live_drops := k
    end
