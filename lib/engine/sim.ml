type time = int

type event = {
  mutable at : time;
  mutable seq : int; (* tie-breaker: FIFO among same-time events *)
  mutable thunk : unit -> unit; (* [fired] once fired or cancelled *)
  mutable label : string; (* static schedule-site kind; "" = unlabeled *)
  pooled : bool; (* allocated by [schedule_drop]: no handle escapes, so the
                    record is recycled through the free list after firing *)
}

(* The thunk of a fired or cancelled event, compared with [==]: a shared
   sentinel instead of an option saves the [Some] box on every schedule. *)
let fired () = ()

(* Binary min-heap over (at, seq). A simple array-backed heap is enough: the
   simulator's hot loop is push/pop and both are O(log n) with no allocation
   beyond the event records themselves. [swaps] counts sift-down swaps so
   the self-profiler can histogram per-pop heap costs; one int increment
   per swap is noise next to the swap itself. *)
module Heap = struct
  type t = { mutable a : event array; mutable len : int }

  let swaps = ref 0
  let dummy = { at = 0; seq = 0; thunk = fired; label = ""; pooled = false }
  let min_capacity = 256
  let create () = { a = Array.make min_capacity dummy; len = 0 }

  let before x y = x.at < y.at || (x.at = y.at && x.seq < y.seq)

  let push h e =
    if h.len = Array.length h.a then begin
      let a' = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    let a = h.a in
    let i = ref h.len in
    h.len <- h.len + 1;
    a.(!i) <- e;
    (* sift up *)
    while !i > 0 && before a.(!i) a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = a.(p) in
      a.(p) <- a.(!i);
      a.(!i) <- tmp;
      i := p
    done

  (* The earliest event, removed; [dummy] when the heap is empty (no
     option box per pop). *)
  let pop h =
    if h.len = 0 then dummy
    else begin
      let a = h.a in
      let top = a.(0) in
      h.len <- h.len - 1;
      a.(0) <- a.(h.len);
      a.(h.len) <- dummy;
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && before a.(l) a.(!smallest) then smallest := l;
        if r < h.len && before a.(r) a.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = a.(!smallest) in
          a.(!smallest) <- a.(!i);
          a.(!i) <- tmp;
          incr swaps;
          i := !smallest
        end
        else continue := false
      done;
      top
    end

  let peek h = if h.len = 0 then dummy else h.a.(0)

  (* Tombstone compaction: drop every cancelled record in one pass and
     re-establish the heap property bottom-up (Floyd). Pop order is a total
     order on (at, seq), so rebuilding cannot change what fires next. The
     sift here deliberately does not touch [swaps]: compaction runs inside
     [schedule], and inflating the per-pop swap deltas would corrupt the
     self-profiler's pop-cost histogram. *)
  let sift_down_quiet h i =
    let a = h.a in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && before a.(l) a.(!smallest) then smallest := l;
      if r < h.len && before a.(r) a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = a.(!smallest) in
        a.(!smallest) <- a.(!i);
        a.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done

  let compact h =
    let kept = ref 0 in
    for i = 0 to h.len - 1 do
      let e = h.a.(i) in
      if e.thunk != fired then begin
        h.a.(!kept) <- e;
        incr kept
      end
    done;
    for i = !kept to h.len - 1 do
      h.a.(i) <- dummy
    done;
    h.len <- !kept;
    for i = (h.len / 2) - 1 downto 0 do
      sift_down_quiet h i
    done;
    (* shrink the backing array once occupancy falls below a quarter of
       capacity, so a long run does not hold its high-water array forever *)
    let cap = ref (Array.length h.a) in
    while !cap > min_capacity && h.len * 4 < !cap do
      cap := !cap / 2
    done;
    if !cap < Array.length h.a then begin
      let a' = Array.make !cap dummy in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end
end

type t = {
  mutable clock : time;
  heap : Heap.t;
  mutable next_seq : int;
  mutable live : int; (* scheduled and not yet fired/cancelled *)
  mutable last_fired_at : time; (* same-timestamp batch tracking *)
  mutable batch : int; (* events fired at [last_fired_at] so far *)
  (* free list of recycled [pooled] event records ([schedule_drop]): the
     cell-train fast path schedules its per-hop events through here, so a
     train hop allocates no event record in steady state *)
  mutable pool : event array;
  mutable pool_len : int;
}

(* A handle pairs the event with its owning simulator so [cancel] can drop
   [live] immediately — [len - live] is then exactly the in-heap tombstone
   population read by the compaction trigger and the tombstone probe. *)
type handle = { h_ev : event; h_sim : t }

(* Queue accounting, always on: three int increments per event lifetime.
   [sim_events_total{outcome=cancelled}] counts tombstones — events that
   will be popped and skipped, pure pop-path waste when the ratio climbs
   (see [tombstone_ratio]). *)
let c_scheduled =
  Metrics.counter ~help:"events by lifecycle outcome" "sim_events_total"
    [ ("outcome", "scheduled") ]

let c_fired =
  Metrics.counter ~help:"events by lifecycle outcome" "sim_events_total"
    [ ("outcome", "fired") ]

let c_cancelled =
  Metrics.counter ~help:"events by lifecycle outcome" "sim_events_total"
    [ ("outcome", "cancelled") ]

let events_fired () = Metrics.Counter.value c_fired
let events_cancelled () = Metrics.Counter.value c_cancelled

let tombstone_ratio () =
  let fired = events_fired () and cancelled = events_cancelled () in
  if fired + cancelled = 0 then 0.
  else float_of_int cancelled /. float_of_int (fired + cancelled)

let create () =
  let t =
    {
      clock = 0;
      heap = Heap.create ();
      next_seq = 0;
      live = 0;
      last_fired_at = -1;
      batch = 0;
      pool = Array.make 64 Heap.dummy;
      pool_len = 0;
    }
  in
  (* the newest simulator stamps every observer (exactly one is live at a
     time in every runner; see Clock) *)
  Clock.attach (fun () -> t.clock);
  (* queue introspection probes, registered after attach so they
     belong to this instance's generation (sampled only while the
     timeseries sampler is on) *)
  Timeseries.register "sim_queue_depth" [] (fun () -> float_of_int t.live);
  Timeseries.register "sim_queue_tombstones" [] (fun () ->
      float_of_int (t.heap.Heap.len - t.live));
  t

let now t = t.clock
let global_now t = Clock.base () + t.clock
let pending t = t.live

(* Compact once the in-heap tombstone share crosses the same 25% threshold
   the introspection warning uses; checked at schedule time so the cost is
   one comparison on the hot path. *)
let maybe_compact t =
  let len = t.heap.Heap.len in
  if len >= Heap.min_capacity && (len - t.live) * 4 > len then
    Heap.compact t.heap

let schedule_at ?(label = "") t at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %d is in the past (now %d)" at
         t.clock);
  let e = { at; seq = t.next_seq; thunk = f; label; pooled = false } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Metrics.Counter.inc c_scheduled;
  maybe_compact t;
  Heap.push t.heap e;
  { h_ev = e; h_sim = t }

let schedule ?label t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at ?label t (t.clock + delay) f

(* Fire-and-forget scheduling: no handle escapes, so the event record comes
   from (and returns to) the per-simulator free list and cannot be
   cancelled. Hot per-hop sites that [ignore (schedule ...)] use this. *)
let schedule_drop_at ?(label = "") t at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_drop_at: time %d is in the past (now %d)"
         at t.clock);
  let e =
    if t.pool_len > 0 then begin
      t.pool_len <- t.pool_len - 1;
      let e = t.pool.(t.pool_len) in
      t.pool.(t.pool_len) <- Heap.dummy;
      e.at <- at;
      e.seq <- t.next_seq;
      e.thunk <- f;
      e.label <- label;
      e
    end
    else { at; seq = t.next_seq; thunk = f; label; pooled = true }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Metrics.Counter.inc c_scheduled;
  maybe_compact t;
  Heap.push t.heap e

let schedule_drop ?label t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule_drop: negative delay";
  schedule_drop_at ?label t (t.clock + delay) f

let recycle t (e : event) =
  if e.pooled then begin
    if t.pool_len = Array.length t.pool then
      if t.pool_len < 4096 then begin
        let a' = Array.make (2 * t.pool_len) Heap.dummy in
        Array.blit t.pool 0 a' 0 t.pool_len;
        t.pool <- a'
      end
      else ()
    else ();
    if t.pool_len < Array.length t.pool then begin
      e.label <- "";
      t.pool.(t.pool_len) <- e;
      t.pool_len <- t.pool_len + 1
    end
  end

(* Cancellation leaves the record in the heap as a tombstone, but [live]
   drops immediately (see [handle]). Pooled records never reach here:
   [schedule_drop] returns no handle. *)
let cancel { h_ev = e; h_sim = t } =
  if e.thunk != fired then begin
    e.thunk <- fired;
    t.live <- t.live - 1;
    Metrics.Counter.inc c_cancelled
  end

(* Same-timestamp batch bookkeeping for the self-profiler: a batch ends
   when a fired event carries a later timestamp (or the run drains). *)
let flush_batch t =
  if t.batch > 0 then begin
    Profile.observe_batch t.batch;
    t.batch <- 0
  end

(* Pop events, skipping tombstones, firing the first live one. The
   telemetry hooks cost one boolean read each when their subsystem is off,
   and never touch the event queue or the clock, so runs with telemetry
   disabled are byte-identical to runs without these lines. A top-level
   function rather than a local closure, so a step allocates nothing of
   its own. *)
let rec fire_next t ~selfprof ~swaps0 skipped =
  let e = Heap.pop t.heap in
  if e == Heap.dummy then false
  else
    let f = e.thunk in
    if f == fired then
      (* cancelled: a tombstone, pure pop-path waste ([live] already
         dropped at cancel time) *)
      fire_next t ~selfprof ~swaps0 (skipped + 1)
    else begin
      e.thunk <- fired;
      t.live <- t.live - 1;
      t.clock <- e.at;
      Metrics.Counter.inc c_fired;
      if Timeseries.enabled () then Timeseries.on_event (global_now t);
      if Recorder.armed () then Recorder.tick (global_now t);
      if selfprof then begin
        Profile.observe_pop_cost (skipped + !Heap.swaps - swaps0);
        if e.at = t.last_fired_at then t.batch <- t.batch + 1
        else begin
          flush_batch t;
          t.last_fired_at <- e.at;
          t.batch <- 1
        end;
        Profile.event_begin ~label:e.label;
        f ();
        Profile.event_end ()
      end
      else f ();
      recycle t e;
      true
    end

let step t =
  fire_next t ~selfprof:Profile.(enabled Wall) ~swaps0:!Heap.swaps 0

let run ?until t =
  (match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        let e = Heap.peek t.heap in
        if e == Heap.dummy || e.at > limit then continue := false
        else if not (step t) then continue := false
      done;
      if t.clock < limit then t.clock <- limit);
  (* a final sample/watchdog check at the end-of-run clock, so a run that
     drains (or coasts to its limit) still observes its last state *)
  if Profile.(enabled Wall) then flush_batch t;
  if Timeseries.enabled () then Timeseries.on_event (global_now t);
  if Recorder.armed () then Recorder.tick (global_now t)

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_us_f f = int_of_float (Float.round (f *. 1_000.))
let to_us t = float_of_int t /. 1_000.
let to_sec t = float_of_int t /. 1_000_000_000.
