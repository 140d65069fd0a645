module Mailbox = struct
  (* A waiting receiver is represented by a slot: the sender deposits the
     value and fires the resume thunk. Timeouts kill the slot so a later send
     skips it. *)
  type 'a waiter = {
    mutable cell : 'a option;
    mutable alive : bool;
    mutable resume : unit -> unit;
  }

  type 'a t = {
    sim : Sim.t;
    items : 'a Queue.t;
    waiters : 'a waiter Queue.t;
  }

  let create sim = { sim; items = Queue.create (); waiters = Queue.create () }
  let length t = Queue.length t.items

  let rec send t v =
    match Queue.take_opt t.waiters with
    | None -> Queue.add v t.items
    | Some w ->
        if w.alive then begin
          w.cell <- Some v;
          w.alive <- false;
          w.resume ()
        end
        else send t v

  let recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None ->
        let w = { cell = None; alive = true; resume = (fun () -> ()) } in
        Proc.suspend (fun resume ->
            w.resume <- resume;
            Queue.add w t.waiters);
        (match w.cell with
        | Some v -> v
        | None -> assert false)

  let recv_timeout t ~timeout =
    match Queue.take_opt t.items with
    | Some v -> Some v
    | None ->
        let w = { cell = None; alive = true; resume = (fun () -> ()) } in
        Proc.suspend (fun resume ->
            w.resume <- resume;
            Queue.add w t.waiters;
            Sim.schedule_drop ~label:"sync.timeout" t.sim ~delay:timeout
              (fun () ->
                if w.alive then begin
                  w.alive <- false;
                  resume ()
                end));
        w.cell
end

module Semaphore = struct
  type t = {
    sim : Sim.t;
    mutable count : int;
    waiters : (unit -> unit) Queue.t;
  }

  let create sim count =
    if count < 0 then invalid_arg "Semaphore.create: negative count";
    { sim; count; waiters = Queue.create () }

  let available t = t.count

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else Proc.suspend (fun resume -> Queue.add resume t.waiters)

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let release t =
    match Queue.take_opt t.waiters with
    | Some resume ->
        Sim.schedule_drop ~label:"sync.release" t.sim ~delay:0 resume
    | None -> t.count <- t.count + 1
end

module Condition = struct
  type t = { sim : Sim.t; mutable waiting : (unit -> unit) list }

  let create sim = { sim; waiting = [] }
  let waiters t = List.length t.waiting

  let wait t = Proc.suspend (fun resume -> t.waiting <- resume :: t.waiting)

  let broadcast t =
    let ws = List.rev t.waiting in
    t.waiting <- [];
    List.iter
      (fun resume ->
        Sim.schedule_drop ~label:"sync.broadcast" t.sim ~delay:0 resume)
      ws

  let rec wait_for t pred =
    if not (pred ()) then begin
      wait t;
      wait_for t pred
    end
end

module Server = struct
  (* Batches are the train fast path (DESIGN.md §14): a precomputed schedule
     standing in for a run of per-cell jobs. A [chain] is the tx side — one
     fixed-cost setup window followed by one per-cell unit job per cell, each
     ending at a precomputed link-acceptance instant. A [paced] batch is the
     rx side — per-cell jobs whose start times chain off precomputed cell
     arrival instants. Any plain [submit] while a batch is active dissolves
     it ("splits") back into real jobs/events with byte-identical
     accounting, so a batch is only ever an optimization, never a behavior
     change. *)

  type chain_phase =
    | Chain_first of Sim.time  (* setup job in flight; completes at [t] *)
    | Chain_unit of Sim.time  (* per-cell unit job in flight; completes at [t] *)
    | Chain_gap of Sim.time
      (* between refused attempts; first attempt for the pending cell was at
         [t], retries follow at the caller's retry step *)

  type chain = {
    c_first_end : Sim.time;
    c_unit : Sim.time;
    c_stage : string option;  (* profile stage of the unit jobs *)
    c_accepts : Sim.time array;  (* acceptance instant of cell i *)
    c_done : unit -> unit;
    c_split : accepted:int -> phase:chain_phase -> unit;
    mutable c_ev : Sim.handle option;
  }

  type paced = {
    p_cost : Sim.time;
    p_stage : string option;
    p_arrivals : Sim.time array;
    p_free : Sim.time;
      (* the server was free of earlier work from here on; unit i starts at
         max(arrival.(i), end.(i-1)) with end.(-1) = p_free, computed where
         a split or truncation needs it rather than stored *)
    p_action : int -> unit;  (* the deferred body of unit i *)
    mutable p_n : int;  (* live prefix; shrinks if the train truncates *)
    mutable p_ev : Sim.handle option;
    mutable p_split_evs : (int * Sim.handle) list;
      (* arrival events re-armed by a split, by cell index: a truncation
         arriving after the split must still cancel the cut cells' events
         (their cells are re-delivered for real by the per-cell path) *)
  }

  type batch = Chain of chain | Paced of paced

  (* At most one job is in flight. Its continuation waits in [current]
     and its completion event fires [job_done], made once per server, so a
     job allocates no closure of its own; queued jobs wait in two
     parallel rings. *)
  type t = {
    sim : Sim.t;
    owner : (int * string list) option;
        (* profile host and frame prefix the occupancy is charged under *)
    costs : Sim.time Ringbuf.t;
    ks : (unit -> unit) Ringbuf.t;
    mutable current : unit -> unit;
    job_done : unit -> unit;
    mutable busy : bool;
    mutable busy_until : Sim.time;  (* meaningful only while [busy] *)
    mutable busy_time : Sim.time;
    mutable batch : batch option;
  }

  let nop () = ()

  (* Also re-arms a real in-flight job completing at [until] whose cost was
     already charged by a batch that is being split. *)
  let resume_inflight t ~until ~k =
    t.busy <- true;
    t.busy_until <- until;
    t.current <- k;
    Sim.schedule_drop ~label:"sync.job_done" t.sim
      ~delay:(until - Sim.now t.sim) t.job_done

  let start t ~cost k =
    t.busy_time <- t.busy_time + cost;
    resume_inflight t ~until:(Sim.now t.sim + cost) ~k

  let start_next t =
    if Ringbuf.is_empty t.ks then t.busy <- false
    else
      let cost = Ringbuf.pop t.costs in
      start t ~cost (Ringbuf.pop t.ks)

  let job_done t =
    t.current ();
    start_next t

  let enqueue t ~cost k =
    Ringbuf.push t.costs cost;
    Ringbuf.push t.ks k

  let create ?owner sim =
    let rec t =
      {
        sim;
        owner;
        costs = Ringbuf.create ~dummy:0;
        ks = Ringbuf.create ~dummy:nop;
        current = nop;
        job_done = (fun () -> job_done t);
        busy = false;
        busy_until = 0;
        busy_time = 0;
        batch = None;
      }
    in
    t

  let busy t = t.busy
  let queue_length t = Ringbuf.length t.ks
  let busy_time t = t.busy_time
  let idle t = (not t.busy) && Ringbuf.is_empty t.ks && t.batch = None

  (* The profile is charged where busy time is, from the owner's host root
     (the device runs asynchronously to any open application frame); a
     batch refunds with a negative charge. *)
  let charge t stage ns =
    if Profile.(enabled Virtual) then
      match (t.owner, stage) with
      | Some (host, prefix), Some stage ->
          Profile.charge_root ~host ~frames:(prefix @ [ stage ]) ns
      | _ -> ()

  let finish_chain t c () =
    c.c_ev <- None;
    t.batch <- None;
    t.busy <- false;
    t.busy_until <- Sim.now t.sim;
    c.c_done ()

  (* The instant the first [k] units of [p] are done. *)
  let paced_end p k =
    let e = ref p.p_free in
    for i = 0 to k - 1 do
      e := max p.p_arrivals.(i) !e + p.p_cost
    done;
    !e

  (* Paced completion runs every deferred per-cell action in arrival order
     with the server held busy, exactly as the per-cell path runs each k
     inside its job_done event: a submit from the final action (the EOP
     handoff) therefore enqueues and is popped right after, preserving FIFO
     order against any job the actions enqueue. *)
  let finish_paced t p () =
    p.p_ev <- None;
    t.batch <- None;
    t.busy <- true;
    t.busy_until <- Sim.now t.sim;
    for i = 0 to p.p_n - 1 do
      p.p_action i
    done;
    start_next t

  (* Split a tx chain at the current instant: count cells whose acceptance is
     strictly in the past (an acceptance at exactly [now] has not fired yet —
     the interferer's event won the tie — and is re-performed by the re-armed
     per-cell continuation), refund the units the per-cell path will charge
     again, and hand the phase to the NI's re-entry callback. *)
  let split_chain t c =
    let now = Sim.now t.sim in
    (match c.c_ev with
    | Some h ->
        Sim.cancel h;
        c.c_ev <- None
    | None -> ());
    t.batch <- None;
    t.busy <- false;
    let n = Array.length c.c_accepts in
    let m = ref 0 in
    while !m < n && c.c_accepts.(!m) < now do
      incr m
    done;
    let m = !m in
    let phase, consumed =
      if now <= c.c_first_end then (Chain_first c.c_first_end, 0)
      else begin
        (* the completion event at c_accepts.(n-1) fires before any event at
           a strictly later time, so an active chain always has a pending
           cell *)
        assert (m < n);
        let q = if m = 0 then c.c_first_end else c.c_accepts.(m - 1) in
        if now <= q + c.c_unit then (Chain_unit (q + c.c_unit), m + 1)
        else (Chain_gap (q + c.c_unit), m + 1)
      end
    in
    t.busy_time <- t.busy_time - ((n - consumed) * c.c_unit);
    charge t c.c_stage (-(n - consumed) * c.c_unit);
    c.c_split ~accepted:m ~phase

  (* Split a paced rx batch: the completed prefix's actions run now (they are
     pure pushes — only the final action may submit, and it can never be in
     the completed prefix because the batch-completion event wins same-time
     ties); at most one unit is genuinely in flight; arrived-but-unstarted
     units enqueue as real jobs ahead of the interferer; future arrivals
     become real arrival events that re-submit plainly. If the server is
     still busy with a plain job (its completion at [now] lost the tie to
     the interferer), no unit has started yet and everything queues. *)
  let rec split_paced t p =
    let now = Sim.now t.sim in
    (match p.p_ev with
    | Some h ->
        Sim.cancel h;
        p.p_ev <- None
    | None -> ());
    t.batch <- None;
    let n = p.p_n in
    let consumed = ref 0 in
    let i = ref 0 in
    if not t.busy then begin
      (* [fin]: the end of the unit before [!i] *)
      let fin = ref p.p_free in
      while !i < n && max p.p_arrivals.(!i) !fin + p.p_cost < now do
        fin := max p.p_arrivals.(!i) !fin + p.p_cost;
        p.p_action !i;
        incr consumed;
        incr i
      done;
      if !i < n && max p.p_arrivals.(!i) !fin <= now then begin
        let u = !i in
        incr consumed;
        incr i;
        resume_inflight t
          ~until:(max p.p_arrivals.(u) !fin + p.p_cost)
          ~k:(fun () -> p.p_action u)
      end
    end;
    (* arrived units queue as jobs and keep their charge; future ones are
       refunded and charged again when they come back through [submit];
       only these requeued units get a closure of their own *)
    let future = ref 0 in
    while !i < n do
      let u = !i in
      let k () = p.p_action u in
      let arr = p.p_arrivals.(u) in
      if arr <= now then enqueue t ~cost:p.p_cost k
      else begin
        let h =
          Sim.schedule ~label:"sync.paced_arrival" t.sim ~delay:(arr - now)
            (fun () -> submit t ?stage:p.p_stage ~cost:p.p_cost k)
        in
        p.p_split_evs <- (u, h) :: p.p_split_evs;
        incr future
      end;
      incr i
    done;
    t.busy_time <- t.busy_time - ((n - !consumed) * p.p_cost);
    charge t p.p_stage (- !future * p.p_cost)

  and interfere t =
    match t.batch with
    | None -> ()
    | Some (Chain c) -> split_chain t c
    | Some (Paced p) -> split_paced t p

  and submit t ?stage ~cost k =
    if cost < 0 then invalid_arg "Server.submit: negative cost";
    charge t stage cost;
    interfere t;
    if t.busy then enqueue t ~cost k else start t ~cost k

  let begin_chain t ?stages ?done_sched ~first_end ~unit_cost ~accepts
      ~on_done ~on_split () =
    if not (idle t) then invalid_arg "Server.begin_chain: server not idle";
    let n = Array.length accepts in
    if n = 0 then invalid_arg "Server.begin_chain: empty train";
    let c =
      {
        c_first_end = first_end;
        c_unit = unit_cost;
        c_stage = Option.map snd stages;
        c_accepts = accepts;
        c_done = on_done;
        c_split = on_split;
        c_ev = None;
      }
    in
    let now = Sim.now t.sim in
    t.batch <- Some (Chain c);
    t.busy_time <- t.busy_time + (first_end - now) + (n * unit_cost);
    charge t (Option.map fst stages) (first_end - now);
    charge t c.c_stage (n * unit_cost);
    let last = accepts.(n - 1) in
    (* Same-instant ties against the completion are resolved by event
       schedule order, so the completion event must be *created* when the
       per-cell path would have created the final accepting event
       ([done_sched]), not at commit time — a trampoline event at
       [done_sched] gives it the right heap sequence. *)
    match done_sched with
    | Some s when s > now && s < last ->
        c.c_ev <-
          Some
            (Sim.schedule ~label:"sync.chain_done" t.sim ~delay:(s - now)
               (fun () ->
                 c.c_ev <-
                   Some
                     (Sim.schedule ~label:"sync.chain_done" t.sim
                        ~delay:(last - s) (finish_chain t c))))
    | _ ->
        c.c_ev <-
          Some
            (Sim.schedule ~label:"sync.chain_done" t.sim ~delay:(last - now)
               (finish_chain t c))

  let submit_paced t ~stage ~cost ~n ~arrivals ~action =
    if cost <= 0 then invalid_arg "Server.submit_paced: non-positive cost";
    if t.batch <> None || not (Ringbuf.is_empty t.ks) then None
    else begin
      if n <= 0 || Array.length arrivals < n then
        invalid_arg "Server.submit_paced: bad unit count";
      t.busy_time <- t.busy_time + (n * cost);
      let p_stage = Some stage in
      charge t p_stage (n * cost);
      let p =
        {
          p_cost = cost;
          p_stage;
          p_arrivals = arrivals;
          p_free = (if t.busy then t.busy_until else 0);
          p_action = action;
          p_n = n;
          p_ev = None;
          p_split_evs = [];
        }
      in
      let now = Sim.now t.sim in
      t.batch <- Some (Paced p);
      p.p_ev <-
        Some
          (Sim.schedule ~label:"sync.batch_done" t.sim
             ~delay:(paced_end p n - now) (finish_paced t p));
      Some p
    end

  (* The train this batch models was truncated upstream: units past [keep]
     will never arrive. All of them are strictly in the future (a unit only
     arrives after its cell was accepted upstream), so this just shrinks the
     live prefix and re-arms completion at the new last unit's end. *)
  let truncate_paced t p ~keep =
    (* cut cells re-armed by an earlier split will never arrive — the
       per-cell path re-delivers them for real (their events cannot have
       fired: a truncation never cuts below the delivered prefix) *)
    p.p_split_evs <-
      List.filter
        (fun (i, h) ->
          if i >= keep then begin
            Sim.cancel h;
            false
          end
          else true)
        p.p_split_evs;
    match t.batch with
    | Some (Paced q) when q == p ->
        if keep < p.p_n then begin
          let now = Sim.now t.sim in
          t.busy_time <- t.busy_time - ((p.p_n - keep) * p.p_cost);
          charge t p.p_stage (-(p.p_n - keep) * p.p_cost);
          p.p_n <- keep;
          (match p.p_ev with
          | Some h ->
              Sim.cancel h;
              p.p_ev <- None
          | None -> ());
          if keep = 0 then t.batch <- None
          else
            let e = paced_end p keep in
            p.p_ev <-
              Some
                (Sim.schedule ~label:"sync.batch_done" t.sim
                   ~delay:(max 0 (e - now))
                   (finish_paced t p))
        end
    | _ -> ()
end
