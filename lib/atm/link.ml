open Engine

(* Planned (analytic) occupancy of the wire by one train or bridged cell on
   the fast path (DESIGN.md §14): per-cell acceptance and serialization-start
   instants computed up front, with drop / queue-high-water side effects kept
   as time-stamped entries that lazily fold into the real counters no later
   than any observer reads them. The high-water entries are not stored apart:
   cell i that queued behind others left [h_qafter.(i)] > 0 cells queued at
   [h_accepts.(i)]. [h_live] shrinks when the owning train is truncated back
   to the per-cell path. *)
type hop = {
  mutable h_live : int;  (* cells still riding this plan *)
  h_accepts : Sim.time array;  (* p_i: instant cell i enters the queue *)
  h_starts : Sim.time array;  (* s_i: instant cell i starts serializing *)
  mutable h_qafter : float array;
    (* queue depth after accepting cell i; 0 when it went straight to the
       wire *)
  h_fold_sent : bool;
    (* trains fold sent/delivery analytically; bridged cells keep a real
       delivery event that does its own accounting *)
  mutable h_drops : Sim.time array;  (* refused-attempt instants, ascending *)
  mutable h_ndrops : int;
  (* fold cursors: first entry of each kind not yet applied (high-water
     and busy by cell index) *)
  mutable f_busy : int;
  mutable f_sent : int;
  mutable f_drop : int;
  mutable f_hw : int;
}

type t = {
  sim : Sim.t;
  id : int; (* names the link to a PDU's hop journal *)
  cell_time : Sim.time;
  propagation : Sim.time;
  queue_capacity : int;
  queue : Cell.t Ringbuf.t;
  mutable transmitting : bool;
  mutable on_wire : Cell.t;
    (* the cell serializing while [transmitting]; the last one after *)
  propagating : Cell.t Ringbuf.t;
    (* cells forwarded without an extra delay, oldest first: each reaches
       the far end [propagation] after it left, so their arrival events
       fire in the order they were scheduled *)
  tx_done : unit -> unit; (* the end of [on_wire]'s serialization *)
  arrive : unit -> unit; (* the oldest [propagating] cell reaches the far end *)
  mutable receiver : (Cell.t -> unit) option;
  mutable fault : Fault.t option;
  mutable sent : int;
  mutable dropped : int;
  mutable busy_ns : int; (* cumulative serialization time (utilization) *)
  m_sent : Metrics.Counter.t;
  m_dropped : Metrics.Counter.t;
  m_queue_hw : Metrics.Gauge.t;
  (* train fast path *)
  hops : hop Fifo.t;  (* oldest first; retired once fully folded *)
  mutable a_tail : Sim.time;  (* wire busy-until including planned cells *)
  mutable on_interfere : (unit -> unit) option;
    (* splits the chain that owns pending uplink acceptances before a
       per-cell send threads through the analytic state *)
  mutable on_accept : (unit -> unit) option;
    (* fired for every real cell accepted by [send] (legacy or bridged),
       never for planned train commits — the network's per-ingress
       in-flight gate counts real cells in with it *)
  mutable on_loss : (Cell.t -> unit) option;
    (* fired for every cell the fault injector drops; the network charges
       it to the cell's flow *)
}

(* Apply every planned side effect with a timestamp <= [now] — the same
   boundary Sim.run uses for firing events at a limit — and retire hops whose
   entries are exhausted. Called from the Metrics flush hook (so dumps are
   exact), from the counter accessors, before every plan (so a commit never
   finds finished hops ahead of it) and before a per-cell send that finds
   planned state pending. *)
let hop_done t now h =
  h.f_busy >= h.h_live
  && (not h.h_fold_sent || h.f_sent >= h.h_live)
  && h.f_drop >= h.h_ndrops
  && h.f_hw >= h.h_live
  (* even with every side effect folded, the last cell occupies the wire
     until start + cell_time: retiring earlier would let a legacy send
     overlap it (send only consults [a_tail] while hops are live) *)
  && (h.h_live = 0 || h.h_starts.(h.h_live - 1) + t.cell_time <= now)

(* First index at or after [i] whose entry of [arr] (ascending) is past
   [now]. *)
let rec past (arr : Sim.time array) n i now =
  if i < n && arr.(i) <= now then past arr n (i + 1) now else i

(* Each kind of entry folds in bulk: one counter update per hop, not one
   per cell, since a fold now runs on the data path (before every plan). *)
let fold_hop t now h =
  let d = past h.h_drops h.h_ndrops h.f_drop now in
  if d > h.f_drop then begin
    t.dropped <- t.dropped + (d - h.f_drop);
    Metrics.Counter.add t.m_dropped (d - h.f_drop);
    h.f_drop <- d
  end;
  let b = past h.h_starts h.h_live h.f_busy now in
  t.busy_ns <- t.busy_ns + ((b - h.f_busy) * t.cell_time);
  h.f_busy <- b;
  if h.h_fold_sent then begin
    (* a cell counts as sent once its serialization has finished *)
    let s = past h.h_starts h.h_live h.f_sent (now - t.cell_time) in
    if s > h.f_sent then begin
      t.sent <- t.sent + (s - h.f_sent);
      Metrics.Counter.add t.m_sent (s - h.f_sent);
      h.f_sent <- s
    end
  end;
  let w = past h.h_accepts h.h_live h.f_hw now in
  if w > h.f_hw then begin
    let m = ref 0. in
    for i = h.f_hw to w - 1 do
      if h.h_qafter.(i) > !m then m := h.h_qafter.(i)
    done;
    if !m > 0. then Metrics.Gauge.set_max t.m_queue_hw !m;
    h.f_hw <- w
  end

let fold_to t now =
  if not (Fifo.is_empty t.hops) then
    Fifo.filter_in_place
      (fun h ->
        fold_hop t now h;
        not (hop_done t now h))
      t.hops

let dummy_hop =
  {
    h_live = 0;
    h_accepts = [||];
    h_starts = [||];
    h_qafter = [||];
    h_fold_sent = false;
    h_drops = [||];
    h_ndrops = 0;
    f_busy = 0;
    f_sent = 0;
    f_drop = 0;
    f_hw = 0;
  }

(* #entries among [arr.(0..n-1)] (monotone non-decreasing) that are <= [x].
   Every planned-occupancy query reduces to these: the timeseries sampler
   and the planner hit them once per boundary / attempt, so O(log n) per
   hop matters against multi-thousand-cell trains. Typed, so [<=] is an
   integer compare rather than the polymorphic one. *)
let count_le (arr : Sim.time array) n (x : Sim.time) =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* #cells of [h] in the transmit queue at [at] under completion-first
   semantics: accepted at or before [at], not yet started (a start at
   exactly [at] counts as started — its pop event fires before any same-time
   attempt that could observe it on the fast path's planned links). *)
let hop_queued h ~at =
  (* accepts(i) <= starts(i), so the started set is a subset of the
     accepted set and the difference of counts is the queue depth *)
  count_le h.h_accepts h.h_live at - count_le h.h_starts h.h_live at

let analytic_queued t ~at =
  Fifo.fold_left (fun acc h -> acc + hop_queued h ~at) 0 t.hops

(* State *at* a past instant [at] (a timeseries sample boundary between
   the previous event and the one about to fire). Real mutations all
   happened at or before the previous event, so the live fields are
   already exact at [at]; only planned (analytic) state needs evaluating
   against [at] instead of now. Safe against earlier folds: a hop only
   retires once its last start + cell_time has passed the fold time,
   which is <= [at] for every boundary the sampler visits. *)
let queue_length_at t ~at =
  let n = Ringbuf.length t.queue in
  if Fifo.is_empty t.hops then n else n + analytic_queued t ~at

(* Cumulative serialization ns as of [at]: the per-cell path adds a full
   cell_time at each serialization start, so this counts starts <= [at].
   [t.busy_ns] holds real increments plus whatever the fold cursors have
   applied; correct it per planned cell by whether its start has passed
   [at], independent of where the cursor happens to be. *)
let busy_ns_at t ~at =
  (* the folded set is the prefix [0, f_busy) and the started set the
     prefix of starts <= [at]; the correction is the signed difference of
     the two prefix lengths *)
  let corr =
    Fifo.fold_left
      (fun acc h -> acc + (count_le h.h_starts h.h_live at - h.f_busy))
      0 t.hops
  in
  t.busy_ns + (corr * t.cell_time)

let set_receiver t f = t.receiver <- Some f
let set_fault t f = t.fault <- Some f
let cell_time t = t.cell_time
let propagation t = t.propagation
let id t = t.id

let cells_sent t =
  fold_to t (Sim.now t.sim);
  t.sent

let cells_dropped t =
  fold_to t (Sim.now t.sim);
  t.dropped

let cells_offered t = cells_sent t + cells_dropped t

let queue_length t =
  let n = Ringbuf.length t.queue in
  if Fifo.is_empty t.hops then n
  else n + analytic_queued t ~at:(Sim.now t.sim)

let pending_hops t = Fifo.length t.hops
let set_interfere t f = t.on_interfere <- Some f
let clear_interfere t = t.on_interfere <- None
let set_on_accept t f = t.on_accept <- Some f
let set_on_loss t f = t.on_loss <- Some f
let accepted t = match t.on_accept with Some f -> f () | None -> ()

(* --- planning (DESIGN.md §14) ---------------------------------------

   A plan reproduces, cell by cell, the decisions the per-cell event path
   would make, in virtual-time order. Same-instant decisions depend on event
   heap order, which is schedule order — so every comparison that lands on an
   exact tie between a planned completion and the attempting event's schedule
   time is unresolvable analytically and refuses the whole plan (the caller
   falls back to the per-cell path, which resolves it for real). *)

exception Refuse

type plan = {
  pl_accepts : Sim.time array;
  pl_starts : Sim.time array;
  pl_drops : Sim.time array;
  pl_qafter : float array;
      (* queue depth just after each acceptance — what a feeder reading
         [queue_length] right after a successful send would see; 0 for a
         cell that went straight to the wire *)
}

(* Wire state seen by an attempt firing at [at] from an event scheduled at
   [sched]. The completion clearing a busy tail was scheduled when its cell
   started serializing, [tail - cell_time] (starts are contiguous up to the
   tail by construction). *)
let busy_at t ~tail ~at ~sched =
  if tail < at then false
  else if tail > at then true
  else
    let csched = tail - t.cell_time in
    if csched < sched then false
    else if csched > sched then true
    else raise Refuse

(* #queued among [count] planned cells, tie-aware: a cell starting exactly
   at [at] left the queue iff its pop (the previous cell's completion,
   scheduled at start - cell_time) precedes the attempt's schedule. An
   acceptance at exactly [at], or a start at [at] whose completion was
   scheduled at [sched] itself, is a tie only event order decides.

   Both arrays ascend and accepts.(i) <= starts.(i), so with no acceptance
   at [at] the cells accepted before [at] that have not started by it
   number (#accepts < at) - (#starts <= at): four binary searches at most
   instead of a scan of every planned cell. *)
let queued_tieaware t ~accepts ~starts ~count ~at ~sched =
  let acc = count_le accepts count (at - 1) in
  if acc < count && accepts.(acc) = at then raise Refuse;
  let st = count_le starts count at in
  if st > 0 && starts.(st - 1) = at then begin
    let csched = at - t.cell_time in
    if csched > sched then acc - count_le starts count (at - 1)
    else if csched = sched then raise Refuse
    else acc - st
  end
  else acc - st

let occupancy_at t ~local_accepts ~local_starts ~local_count ~at ~sched =
  let occ =
    ref
      (queued_tieaware t ~accepts:local_accepts ~starts:local_starts
         ~count:local_count ~at ~sched)
  in
  for k = 0 to Fifo.length t.hops - 1 do
    let h = Fifo.get t.hops k in
    occ :=
      !occ
      + queued_tieaware t ~accepts:h.h_accepts ~starts:h.h_starts
          ~count:h.h_live ~at ~sched
  done;
  !occ

let plannable t =
  (not t.transmitting)
  && Ringbuf.is_empty t.queue
  && t.fault = None
  && t.receiver <> None

(* Plan a sender-paced chain: the attempt for cell 0 fires at
   [first_attempt] from a job event scheduled [gap] earlier; each acceptance
   schedules the next cell's unit job (attempt at acceptance + [gap]); a
   refused attempt drops the cell once and retries from an event scheduled
   at the refusal, one cell_time later — exactly the NI tx / ni.retry
   shape. *)
let plan_chain t ~n ~first_attempt ~gap =
  fold_to t (Sim.now t.sim);
  if not (plannable t) then None
  else
    try
      let accepts = Array.make n 0 and starts = Array.make n 0 in
      let qafter = Array.make n 0. in
      let ndrops = ref 0 in
      let tail = ref t.a_tail in
      let guard = ref 0 in
      let at = ref first_attempt and sched = ref (first_attempt - gap) in
      for i = 0 to n - 1 do
        let accepted = ref false in
        while not !accepted do
          incr guard;
          if !guard > 1_000_000 then raise Refuse;
          if not (busy_at t ~tail:!tail ~at:!at ~sched:!sched) then begin
            accepts.(i) <- !at;
            starts.(i) <- !at;
            tail := !at + t.cell_time;
            accepted := true
          end
          else begin
            let occ =
              occupancy_at t ~local_accepts:accepts ~local_starts:starts
                ~local_count:i ~at:!at ~sched:!sched
            in
            if occ >= t.queue_capacity then begin
              incr ndrops;
              sched := !at;
              at := !at + t.cell_time
            end
            else begin
              accepts.(i) <- !at;
              starts.(i) <- !tail;
              tail := !tail + t.cell_time;
              qafter.(i) <- float_of_int (occ + 1);
              accepted := true
            end
          end
        done;
        if i < n - 1 then begin
          sched := accepts.(i);
          at := accepts.(i) + gap
        end
      done;
      (* the refused attempts are implied by the acceptances: cell i's
         first attempt came [gap] after cell i-1's acceptance (cell 0's at
         [first_attempt]) and each refusal retried one cell_time later *)
      let drops = Array.make !ndrops 0 in
      let d = ref 0 in
      for i = 0 to n - 1 do
        let a = ref (if i = 0 then first_attempt else accepts.(i - 1) + gap) in
        while !a < accepts.(i) do
          drops.(!d) <- !a;
          incr d;
          a := !a + t.cell_time
        done
      done;
      Some
        {
          pl_accepts = accepts;
          pl_starts = starts;
          pl_drops = drops;
          pl_qafter = qafter;
        }
    with Refuse -> None

(* Plan an arrival-fed link (a switch output: a trunk or a downlink): cell
   i's send attempt fires at [arrivals.(i)] from an event
   scheduled [sched_lead] earlier. No retry here — an attempt that can't be
   accepted (>= [refuse_occ] queued, the caller's drop threshold) refuses
   the plan instead of modelling the drop. *)
let plan_feed t ~arrivals ~sched_lead ~refuse_occ =
  fold_to t (Sim.now t.sim);
  if not (plannable t) then None
  else
    try
      let n = Array.length arrivals in
      (* a cell that finds the wire free starts as it arrives: [starts] is
         [arrivals] itself until the first cell has to queue *)
      let starts = ref arrivals in
      let qafter = Array.make n 0. in
      let tail = ref t.a_tail in
      for i = 0 to n - 1 do
        let at = arrivals.(i) in
        let sched = at - sched_lead in
        if not (busy_at t ~tail:!tail ~at ~sched) then
          (* the copy, once made, already holds [at] here *)
          tail := at + t.cell_time
        else begin
          let occ =
            occupancy_at t ~local_accepts:arrivals ~local_starts:!starts
              ~local_count:i ~at ~sched
          in
          if occ >= refuse_occ || occ >= t.queue_capacity then raise Refuse;
          if !starts == arrivals then starts := Array.copy arrivals;
          !starts.(i) <- !tail;
          tail := !tail + t.cell_time;
          qafter.(i) <- float_of_int (occ + 1)
        end
      done;
      Some
        {
          pl_accepts = arrivals;
          pl_starts = !starts;
          pl_drops = [||];
          pl_qafter = qafter;
        }
    with Refuse -> None

let plan_starts pl = pl.pl_starts
let plan_accepts pl = pl.pl_accepts
let plan_queue_after pl = pl.pl_qafter
let plan_drops pl = pl.pl_drops

let commit_plan t pl ~fold_sent =
  let n = Array.length pl.pl_accepts in
  let h =
    {
      h_live = n;
      h_accepts = pl.pl_accepts;
      h_starts = pl.pl_starts;
      h_qafter = pl.pl_qafter;
      h_fold_sent = fold_sent;
      h_drops = pl.pl_drops;
      h_ndrops = Array.length pl.pl_drops;
      f_busy = 0;
      f_sent = 0;
      f_drop = 0;
      f_hw = 0;
    }
  in
  Fifo.push t.hops h;
  if n > 0 then t.a_tail <- max t.a_tail (pl.pl_starts.(n - 1) + t.cell_time);
  h

let recompute_tail t =
  t.a_tail <-
    Fifo.fold_left
      (fun acc h ->
        if h.h_live > 0 then
          max acc (h.h_starts.(h.h_live - 1) + t.cell_time)
        else acc)
      0 t.hops

(* The owning train was truncated to [keep] cells at [now]: planned entries
   at or after [now] are re-performed for real by the per-cell path and must
   not also fold. Entries strictly before [now] did happen and stay. *)
let truncate_hop t h ~keep ~now =
  if keep < h.h_live then begin
    h.h_live <- keep;
    let kd = ref 0 in
    while !kd < h.h_ndrops && h.h_drops.(!kd) < now do
      incr kd
    done;
    if h.f_drop > !kd then begin
      let extra = h.f_drop - !kd in
      t.dropped <- t.dropped - extra;
      Metrics.Counter.add t.m_dropped (-extra);
      h.f_drop <- !kd
    end;
    h.h_ndrops <- !kd;
    (* high-water entries at or after [now] are retracted like drops, kept
       cells included: the kept cells' entries are zeroed in a copy (the
       array is shared with the plan's other readers). A folded entry at
       exactly [now] re-fires identically on the per-cell path (same queue
       state), so no un-apply is needed. *)
    let kh = count_le h.h_accepts keep (now - 1) in
    let zero = ref false in
    for i = kh to keep - 1 do
      if h.h_qafter.(i) > 0. then zero := true
    done;
    if !zero then begin
      let q = Array.sub h.h_qafter 0 keep in
      Array.fill q kh (keep - kh) 0.;
      h.h_qafter <- q
    end;
    if h.f_hw > kh then h.f_hw <- kh;
    if h.f_busy > keep then begin
      t.busy_ns <- t.busy_ns - ((h.f_busy - keep) * t.cell_time);
      h.f_busy <- keep
    end;
    if h.f_sent > keep then begin
      let extra = h.f_sent - keep in
      t.sent <- t.sent - extra;
      Metrics.Counter.add t.m_sent (-extra);
      h.f_sent <- keep
    end;
    recompute_tail t
  end

(* Cells the fault injector kills or damages land on a dedicated "fault"
   capture interface, so a lossy run shows exactly which cells those were
   in Wireshark, next to the clean injection-point capture. A full queue
   is congestion, not a fault, and is not captured. *)
let capture_fault cell =
  if Pcapng.enabled () then
    let ifc = Pcapng.iface ~name:"fault" ~linktype:Pcapng.linktype_sunatm in
    Pcapng.capture ~iface:ifc (Cell.sunatm_bytes cell)

let drop_cell t ~kind (cell : Cell.t) =
  t.dropped <- t.dropped + 1;
  Metrics.Counter.inc t.m_dropped;
  Journal.drop cell.Cell.tag.journal;
  if Trace.enabled () then
    Trace.instant Trace.Cell "link.loss"
      ~args:[ ("vci", Trace.Int cell.Cell.vci); ("kind", Trace.Str kind) ]

let forward t ?(extra_delay = 0) (cell : Cell.t) =
  t.sent <- t.sent + 1;
  Metrics.Counter.inc t.m_sent;
  if Trace.enabled () then
    Trace.instant Trace.Cell "link.tx" ~args:[ ("vci", Trace.Int cell.Cell.vci) ];
  match t.receiver with
  | Some _ when extra_delay = 0 ->
      Ringbuf.push t.propagating cell;
      Sim.schedule_drop ~label:"link.deliver" t.sim ~delay:t.propagation
        t.arrive
  | Some f ->
      Sim.schedule_drop ~label:"link.deliver" t.sim
        ~delay:(t.propagation + extra_delay) (fun () -> f cell)
  | None ->
      (* unreachable: send validates the receiver at entry *)
      invalid_arg "Link: no receiver attached"

(* A snapshot of the cell with one payload byte flipped: the original
   payload is a view aliasing the CS-PDU store (and the sender's retained
   retransmission copy), so corruption must never write through it. The
   copy is uncounted, like a capture — injecting a fault is not a
   data-path copy. *)
let corrupted f (cell : Cell.t) =
  let b = Bytes.create (Buf.length cell.Cell.payload) in
  let pos = ref 0 in
  Buf.iter_spans cell.Cell.payload (fun src ~pos:sp ~len ->
      Bytes.blit src sp b !pos len;
      pos := !pos + len);
  Fault.corrupt_bytes f b;
  { cell with Cell.payload = Buf.of_bytes b }

let deliver t cell =
  match t.fault with
  | None -> forward t cell
  | Some f -> (
      match Fault.decide f with
      | Fault.Pass -> forward t cell
      | Fault.Drop -> (
          capture_fault cell;
          drop_cell t ~kind:"drop" cell;
          match t.on_loss with Some f -> f cell | None -> ())
      | Fault.Corrupt ->
          let cell = corrupted f cell in
          capture_fault cell;
          if Trace.enabled () then
            Trace.instant Trace.Cell "link.corrupt"
              ~args:[ ("vci", Trace.Int cell.Cell.vci) ];
          forward t cell
      | Fault.Duplicate ->
          if Trace.enabled () then
            Trace.instant Trace.Cell "link.duplicate"
              ~args:[ ("vci", Trace.Int cell.Cell.vci) ];
          forward t cell;
          (* the copy trails by one slot, as a stuttering repeater would *)
          forward t ~extra_delay:t.cell_time cell
      | Fault.Reorder slots ->
          if Trace.enabled () then
            Trace.instant Trace.Cell "link.reorder"
              ~args:
                [
                  ("vci", Trace.Int cell.Cell.vci);
                  ("slots", Trace.Int slots);
                ];
          (* held back while later cells overtake it *)
          forward t ~extra_delay:(slots * t.cell_time) cell)

(* the EOP cell starts serializing at [at]: in its journal, this
   separates switch and queue wait from wire time *)
let journal_start t (cell : Cell.t) ~at =
  if cell.Cell.eop then Journal.link_start cell.Cell.tag.journal ~link:t.id ~at

let transmit t cell =
  journal_start t cell ~at:(Sim.now t.sim);
  t.transmitting <- true;
  t.on_wire <- cell;
  t.busy_ns <- t.busy_ns + t.cell_time;
  Sim.schedule_drop ~label:"link.tx_cell" t.sim ~delay:t.cell_time t.tx_done

let tx_done t =
  deliver t t.on_wire;
  if Ringbuf.is_empty t.queue then t.transmitting <- false
  else transmit t (Ringbuf.pop t.queue)

let arrive t =
  let cell = Ringbuf.pop t.propagating in
  match t.receiver with Some f -> f cell | None -> assert false

let next_id = ref 0

let create sim ?(queue_capacity = max_int) ?(metrics_labels = []) ~bandwidth_mbps
    ~propagation () =
  if bandwidth_mbps <= 0. then invalid_arg "Link.create: bandwidth must be positive";
  let bits = float_of_int (Cell.on_wire_size * 8) in
  let cell_time = int_of_float (Float.round (bits /. bandwidth_mbps *. 1_000.)) in
  incr next_id;
  let rec t =
    {
      sim;
      id = !next_id;
      cell_time;
      propagation;
      queue_capacity;
      queue = Ringbuf.create ~dummy:Cell.dummy;
      transmitting = false;
      on_wire = Cell.dummy;
      propagating = Ringbuf.create ~dummy:Cell.dummy;
      tx_done = (fun () -> tx_done t);
      arrive = (fun () -> arrive t);
      receiver = None;
      fault = None;
      sent = 0;
      dropped = 0;
      busy_ns = 0;
      m_sent =
        Metrics.counter ~help:"cells delivered to the far end of a link"
          "atm_link_cells_sent_total" metrics_labels;
      m_dropped =
        Metrics.counter
          ~help:
            "cells lost on a link (transmit-queue overflow or injected loss)"
          "atm_link_cells_dropped_total" metrics_labels;
      m_queue_hw =
        Metrics.gauge ~help:"deepest a link transmit queue has ever been"
          "atm_link_queue_high_water" metrics_labels;
      hops = Fifo.create ~dummy:dummy_hop;
      a_tail = 0;
      on_interfere = None;
      on_accept = None;
      on_loss = None;
    }
  in
  Metrics.register_flush (fun () -> fold_to t (Sim.now sim));
  (* sample boundaries arrive in cumulative time; link state is local *)
  let local at = at - (Sim.global_now sim - Sim.now sim) in
  Timeseries.register_at "atm_link_queue_depth" metrics_labels (fun at ->
      float_of_int (queue_length_at t ~at:(local at)));
  Timeseries.register_at ~kind:Timeseries.Utilization "atm_link_utilization"
    metrics_labels (fun at -> float_of_int (busy_ns_at t ~at:(local at)));
  t


(* A per-cell send while planned (analytic) state is pending on this link:
   the cell threads through the plan instead of the legacy queue. Any chain
   still accepting on this link is split first, so by the time the cell is
   judged, every pending planned cell was accepted strictly earlier and FIFO
   order is exactly arrival order. Same-instant completions resolve
   completion-first (see DESIGN.md §14 on this tie). Serialization start and
   occupancy ride a singleton hop; delivery stays a real event so loss-free
   forward accounting (sent, trace, span) runs on the per-cell path. A
   bridged cell's high water is set as it is accepted, not folded. *)
let bridged_qafter = [| 0. |]

let bridge_send t (cell : Cell.t) =
  let now = Sim.now t.sim in
  (match t.on_interfere with Some f -> f () | None -> ());
  let tail = max t.a_tail now in
  let queued = analytic_queued t ~at:now + Ringbuf.length t.queue in
  if tail > now && queued >= t.queue_capacity then begin
    drop_cell t ~kind:"queue_full" cell;
    false
  end
  else begin
    let start = if tail > now then tail else now in
    if start > now then
      Metrics.Gauge.set_max t.m_queue_hw (float_of_int (queued + 1));
    journal_start t cell ~at:start;
    let pl =
      {
        pl_accepts = [| now |];
        pl_starts = [| start |];
        pl_drops = [||];
        pl_qafter = bridged_qafter;
      }
    in
    ignore (commit_plan t pl ~fold_sent:false);
    Sim.schedule_drop ~label:"link.tx_cell" t.sim
      ~delay:(start + t.cell_time - now)
      (fun () -> deliver t cell);
    accepted t;
    true
  end

let legacy_send t cell =
  if t.transmitting then
    if Ringbuf.length t.queue >= t.queue_capacity then begin
      drop_cell t ~kind:"queue_full" cell;
      false
    end
    else begin
      Ringbuf.push t.queue cell;
      Metrics.Gauge.set_max_int t.m_queue_hw (Ringbuf.length t.queue);
      accepted t;
      true
    end
  else begin
    transmit t cell;
    accepted t;
    true
  end

let send t cell =
  if t.receiver = None then invalid_arg "Link.send: no receiver attached";
  if Fifo.is_empty t.hops then legacy_send t cell
  else begin
    fold_to t (Sim.now t.sim);
    if Fifo.is_empty t.hops then legacy_send t cell else bridge_send t cell
  end
