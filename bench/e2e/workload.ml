(* The five workloads of the end-to-end benchmark. Each one is generated
   from the seed before any timing starts ([prepare]), then built and run
   as often as the harness asks ([build] + the event loop). Every
   generated input -- sizes, schedules, host pairs, fault seed -- comes
   from the seed, and every sink checks what it receives byte for byte
   against the seeded payload pool, in per-flow order, so a run that
   loses, corrupts, duplicates or reorders a message cannot pass.

   The benchmark only calls the simulator's public API: Cluster, Unet,
   Uam, Proc and Sim, plus the counters the layers already register. *)

open Engine

(* Host time is the process's CPU time: the simulator is single-threaded
   and never waits, so this is its cost without the time other processes
   on the machine take from it. *)
let now_ns () = int_of_float (Sys.time () *. 1e9)

type params = {
  msgs : int;  (** operations per trial, summed over flows *)
  clos : Atm.Network.clos;  (** fabric_shuffle's topology *)
}

(* ---- tracing hooks ------------------------------------------------ *)

(* A span in host time, with the virtual times it covers for message
   spans. The traced trial keeps them in memory; the harness writes them
   out at exit. *)
type span = {
  s_name : string;
  s_id : int;
  s_t0 : int;
  s_t1 : int;
  s_vt0 : Sim.time;
  s_vt1 : Sim.time;
}

type ctx = {
  traced : bool;
  mutable spans : span list;
  open_msgs : (int, int * Sim.time) Hashtbl.t;
  mutable create_ns : int;
  mutable connect_ns : int;
}

let ctx ~traced =
  {
    traced;
    spans = [];
    open_msgs = Hashtbl.create 64;
    create_ns = 0;
    connect_ns = 0;
  }

(* Time one set-up call into a layer: [`Create] is the cluster or fabric,
   [`Connect] endpoints and channels. *)
let setup_call ctx kind name f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (match kind with
  | `Create -> ctx.create_ns <- ctx.create_ns + (t1 - t0)
  | `Connect -> ctx.connect_ns <- ctx.connect_ns + (t1 - t0));
  if ctx.traced then
    ctx.spans <-
      { s_name = name; s_id = -1; s_t0 = t0; s_t1 = t1; s_vt0 = 0; s_vt1 = 0 }
      :: ctx.spans;
  r

(* One message span per [msg_every] messages, from the send call to the
   sink's delivery, keyed by the message id. *)
let msg_every = 64

let msg_sent ctx sim id =
  if ctx.traced && id mod msg_every = 0 then
    Hashtbl.replace ctx.open_msgs id (now_ns (), Sim.now sim)

let msg_delivered ctx sim id =
  if ctx.traced && id mod msg_every = 0 then
    match Hashtbl.find_opt ctx.open_msgs id with
    | None -> ()
    | Some (t0, vt0) ->
        Hashtbl.remove ctx.open_msgs id;
        ctx.spans <-
          {
            s_name = "msg";
            s_id = id;
            s_t0 = t0;
            s_t1 = now_ns ();
            s_vt0 = vt0;
            s_vt1 = Sim.now sim;
          }
          :: ctx.spans

(* ---- outcome of one trial ---------------------------------------- *)

type acc = {
  attempted : int;
  mutable ok : int;  (** operations delivered and verified *)
  mutable bytes : int;  (** payload bytes of verified operations *)
  lat : int array;  (** virtual ns per verified operation *)
  mutable retries : int;  (** Queue_full re-offers *)
  mutable lag : Sim.time;
      (** open loop: the latest a send ran behind its due time *)
  mutable done_at : Sim.time;
      (** virtual time the last operation completed *)
  mutable bad : int;
  mutable errors : string list;  (** the first few oracle findings *)
}

let acc attempted =
  {
    attempted;
    ok = 0;
    bytes = 0;
    lat = Array.make attempted 0;
    retries = 0;
    lag = 0;
    done_at = 0;
    bad = 0;
    errors = [];
  }

let bad acc fmt =
  Printf.ksprintf
    (fun msg ->
      acc.bad <- acc.bad + 1;
      if acc.bad <= 5 then acc.errors <- msg :: acc.errors)
    fmt

let complete acc sim ~lat ~bytes =
  if acc.ok >= acc.attempted then bad acc "more completions than operations"
  else begin
    acc.lat.(acc.ok) <- lat;
    acc.ok <- acc.ok + 1;
    acc.bytes <- acc.bytes + bytes;
    acc.done_at <- Sim.now sim
  end

type built = {
  sim : Sim.t;
  net : Atm.Network.t;
  procs : Proc.t list;
  acc : acc;
  finish : unit -> unit;
      (** after the event loop: leftover checks and global-state cleanup *)
}

type t = {
  name : string;
  open_loop : bool;  (** sends follow a schedule, not completions *)
  full : params;
  prepare : seed:int -> ?fault:Fault.spec -> params -> ctx -> built;
      (** generate the inputs; the returned closure builds one trial *)
}

(* ---- shared pieces ------------------------------------------------ *)

let buffer_size = 4_160

(* The seeded payload pool. Raw senders hold it in their communication
   segment, UAM senders slice their blocks from it, and every sink
   compares against it. *)
let pool_size = 32 * 1024

(* One sender's messages: message k is [sizes.(k)] bytes of the pool
   from [offs.(k)]. *)
type flow = {
  src : int;
  dst : int;
  sizes : int array;
  offs : int array;
  due : Sim.time array;  (** open loop: send schedule; empty when closed *)
}

let same pool off (b : bytes) pos len =
  let rec go i =
    i >= len
    || Bytes.unsafe_get pool (off + i) = Bytes.unsafe_get b (pos + i)
       && go (i + 1)
  in
  go 0

let buf_ok pool ~off ~len b =
  Buf.length b = len
  && fst
       (Buf.fold_spans b ~init:(true, off) ~f:(fun (ok, p) s ~pos ~len ->
            (ok && same pool p s pos len, p + len)))

let payload_ok pool ~off ~len seg = function
  | Unet.Desc.Inline b -> buf_ok pool ~off ~len b
  | Unet.Desc.Buffers ranges ->
      let store = Unet.Segment.unsafe_bytes seg in
      let rec go p = function
        | [] -> p = off + len
        | (o, l) :: rest ->
            p + l <= off + len && same pool p store o l && go (p + l) rest
      in
      go off ranges

let return_buffers unet ep (d : Unet.Desc.rx) =
  match d.rx_payload with
  | Unet.Desc.Inline _ -> ()
  | Unet.Desc.Buffers bufs ->
      List.iter
        (fun (off, _) ->
          ignore (Unet.provide_free_buffer unet ep ~off ~len:buffer_size))
        bufs

let with_fault spec f =
  match spec with
  | None -> f ()
  | Some s ->
      Fault.configure (Some s);
      Fun.protect ~finally:(fun () -> Fault.configure None) f

(* Payload line rate in bytes per virtual ns: 48 payload bytes per cell
   slot of the default link (the same rounding Atm.Link applies). *)
let payload_bytes_per_ns =
  let bits = float_of_int (Atm.Cell.on_wire_size * 8) in
  let cell_ns =
    Float.round
      (bits /. Atm.Network.default_config.link_bandwidth_mbps *. 1_000.)
  in
  float_of_int Atm.Cell.payload_size /. cell_ns

(* A seeded schedule offering [load] of the payload line rate: Poisson
   arrivals conditioned on their number, i.e. exponential gaps rescaled so
   that the last message is due when the offered bytes would have taken
   at that load. Every seed then spans the same virtual time, so host time
   per simulated second compares across seeds. *)
let poisson rng sizes ~load =
  let bytes = float_of_int (Array.fold_left ( + ) 0 sizes) in
  let span = bytes /. (load *. payload_bytes_per_ns) in
  let t = ref 0. in
  let arrivals =
    Array.map
      (fun _ ->
        t := !t +. Rng.exponential rng ~mean:1.;
        !t)
      sizes
  in
  Array.map (fun a -> 1 + int_of_float (a /. !t *. span)) arrivals

let mean_gap (f : flow) =
  let n = Array.length f.due in
  max 1 (f.due.(n - 1) / n)

(* The sender's segment: the pool, preloaded by the application. The
   first block is the endpoint's one receive buffer, so payloads are
   taken from above it. *)
let raw_sender c ctx host pool =
  let node = Cluster.node c host in
  let ep, _ =
    setup_call ctx `Connect "unet.endpoint" (fun () ->
        Cluster.simple_endpoint ~seg_size:pool_size ~free_buffers:1
          ~buffer_size node)
  in
  Bytes.blit pool 0 (Unet.Segment.unsafe_bytes ep.Unet.Endpoint.segment) 0
    pool_size;
  (node, ep)

let raw_sink c ctx host =
  let node = Cluster.node c host in
  let ep, _ =
    setup_call ctx `Connect "unet.endpoint" (fun () ->
        Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 ~buffer_size
          node)
  in
  (node, ep)

let raw_offsets rng n sizes =
  Array.init n (fun k ->
      buffer_size + Rng.int rng (pool_size - buffer_size - sizes.(k) + 1))

(* Open-loop source: each message joins the backlog at its due time and
   the backlog is offered in order. A [Queue_full] leaves the head in the
   backlog, counts a retry, and is re-offered at the next slot -- the next
   due time, or one mean gap later once the schedule is exhausted -- so
   back-pressure never turns into a spin-poll. *)
let open_loop_source ctx acc (f : flow) ~id0 unet ep chan sim () =
  let backlog = Queue.create () in
  let rec offer () =
    match Queue.peek_opt backlog with
    | None -> ()
    | Some k -> (
        match
          Unet.send unet ep
            (Unet.Desc.tx ~chan
               (Unet.Desc.Buffers [ (f.offs.(k), f.sizes.(k)) ]))
        with
        | Ok () ->
            ignore (Queue.pop backlog);
            acc.lag <- max acc.lag (Sim.now sim - f.due.(k));
            msg_sent ctx sim (id0 + k);
            offer ()
        | Error Unet.Queue_full -> acc.retries <- acc.retries + 1
        | Error e -> Fmt.failwith "source: %a" Unet.pp_error e)
  in
  Array.iteri
    (fun k due ->
      let now = Sim.now sim in
      if due > now then Proc.sleep sim ~time:(due - now);
      Queue.add k backlog;
      offer ())
    f.due;
  while not (Queue.is_empty backlog) do
    Proc.sleep sim ~time:(mean_gap f);
    offer ()
  done

let raw_sink_proc ctx acc (f : flow) ~id0 ~pool unet ep sim () =
  for k = 0 to Array.length f.sizes - 1 do
    let d = Unet.recv unet ep in
    if
      payload_ok pool ~off:f.offs.(k) ~len:f.sizes.(k) ep.Unet.Endpoint.segment
        d.rx_payload
    then complete acc sim ~lat:(Sim.now sim - f.due.(k)) ~bytes:f.sizes.(k)
    else bad acc "flow %d->%d message %d: payload mismatch" f.src f.dst k;
    msg_delivered ctx sim (id0 + k);
    return_buffers unet ep d
  done

(* Anything left in a sink's receive queue after it took every expected
   message is a duplicate. *)
let check_drained acc (f : flow) (ep : Unet.Endpoint.t) =
  let extra = Unet.Ring.length ep.rx_ring in
  if extra > 0 then bad acc "flow %d->%d: %d extra messages" f.src f.dst extra

(* ---- raw_pingpong ------------------------------------------------- *)

(* Closed loop: 4 client/echo pairs on the paper's 8-host switch, 1-40 B
   messages (one cell, carried inline). Per-message fixed cost
   dominates and trains have nothing to fold. *)
let pingpong_prepare ~seed ?fault p =
  let rng = Rng.create seed in
  let pool = Rng.bytes rng pool_size in
  let hosts = Array.init 8 Fun.id in
  Rng.shuffle rng hosts;
  let pairs = 4 in
  let per = max 1 (p.msgs / pairs) in
  let flows =
    Array.init pairs (fun i ->
        let sizes =
          Array.init per (fun _ -> 1 + Rng.int rng Unet.Desc.inline_max)
        in
        {
          src = hosts.(2 * i);
          dst = hosts.((2 * i) + 1);
          sizes;
          offs =
            Array.init per (fun k -> Rng.int rng (pool_size - sizes.(k) + 1));
          due = [||];
        })
  in
  fun ctx ->
    let c =
      setup_call ctx `Create "cluster.create" (fun () ->
          with_fault fault (fun () -> Cluster.create ~hosts:8 ()))
    in
    let acc = acc (pairs * per) in
    let procs =
      Array.to_list flows
      |> List.mapi (fun i f ->
             let na = Cluster.node c f.src and nb = Cluster.node c f.dst in
             let ea, _ =
               setup_call ctx `Connect "unet.endpoint" (fun () ->
                   Cluster.simple_endpoint ~buffer_size na)
             in
             let eb, _ =
               setup_call ctx `Connect "unet.endpoint" (fun () ->
                   Cluster.simple_endpoint ~buffer_size nb)
             in
             let cha, chb =
               setup_call ctx `Connect "unet.connect_pair" (fun () ->
                   Unet.connect_pair (na.unet, ea) (nb.unet, eb))
             in
             let expect k (d : Unet.Desc.rx) seg =
               payload_ok pool ~off:f.offs.(k) ~len:f.sizes.(k) seg d.rx_payload
             in
             let echo =
               Proc.spawn ~name:"echo" c.sim (fun () ->
                   for k = 0 to per - 1 do
                     let d = Unet.recv nb.unet eb in
                     if not (expect k d eb.segment) then
                       bad acc "pair %d request %d: payload mismatch" i k;
                     (match
                        Unet.send nb.unet eb
                          (Unet.Desc.tx ~chan:chb d.rx_payload)
                      with
                     | Ok () -> ()
                     | Error e -> Fmt.failwith "echo: %a" Unet.pp_error e);
                     return_buffers nb.unet eb d
                   done)
             in
             let client =
               Proc.spawn ~name:"client" c.sim (fun () ->
                   for k = 0 to per - 1 do
                     let t0 = Sim.now c.sim in
                     let payload =
                       Buf.of_bytes_sub pool ~pos:f.offs.(k) ~len:f.sizes.(k)
                     in
                     msg_sent ctx c.sim ((i * per) + k);
                     (match
                        Unet.send na.unet ea
                          (Unet.Desc.tx ~chan:cha (Unet.Desc.Inline payload))
                      with
                     | Ok () -> ()
                     | Error e -> Fmt.failwith "client: %a" Unet.pp_error e);
                     let d = Unet.recv na.unet ea in
                     if expect k d ea.segment then
                       complete acc c.sim ~lat:(Sim.now c.sim - t0)
                         ~bytes:f.sizes.(k)
                     else bad acc "pair %d reply %d: payload mismatch" i k;
                     msg_delivered ctx c.sim ((i * per) + k);
                     return_buffers na.unet ea d
                   done)
             in
             [ echo; client ])
      |> List.concat
    in
    { sim = c.sim; net = c.net; procs; acc; finish = ignore }

(* ---- raw_stream --------------------------------------------------- *)

(* Open loop: one source offers 1 KB-5056 B messages on a Poisson
   schedule averaging 90% of payload line rate. The cell-train fast path
   carries nearly all of it. *)
let stream_prepare ~seed ?fault p =
  let rng = Rng.create seed in
  let pool = Rng.bytes rng pool_size in
  let hosts = Array.init 8 Fun.id in
  Rng.shuffle rng hosts;
  let n = max 1 p.msgs in
  let sizes = Array.init n (fun _ -> 1024 + Rng.int rng (5056 - 1024 + 1)) in
  let f =
    {
      src = hosts.(0);
      dst = hosts.(1);
      sizes;
      offs = raw_offsets rng n sizes;
      due = poisson rng sizes ~load:0.9;
    }
  in
  fun ctx ->
    let c =
      setup_call ctx `Create "cluster.create" (fun () ->
          with_fault fault (fun () -> Cluster.create ~hosts:8 ()))
    in
    let acc = acc n in
    let ns, es = raw_sender c ctx f.src pool in
    let nd, ed = raw_sink c ctx f.dst in
    let chan, _ =
      setup_call ctx `Connect "unet.connect_pair" (fun () ->
          Unet.connect_pair (ns.unet, es) (nd.unet, ed))
    in
    let procs =
      [
        Proc.spawn ~name:"sink" c.sim
          (raw_sink_proc ctx acc f ~id0:0 ~pool nd.unet ed c.sim);
        Proc.spawn ~name:"source" c.sim
          (open_loop_source ctx acc f ~id0:0 ns.unet es chan c.sim);
      ]
    in
    {
      sim = c.sim;
      net = c.net;
      procs;
      acc;
      finish = (fun () -> check_drained acc f ed);
    }

(* ---- uam_store / uam_lossy ---------------------------------------- *)

let h_rr = 1
let h_rr_reply = 2
let h_stop = 3
let region_size = 64 * 1024

type uam_op = {
  u_size : int;
  u_rr : bool;  (** request/reply round trip instead of a block store *)
  u_off : int;  (** pool offset of a round trip's payload *)
  u_dst : int;  (** region offset of a store *)
  u_data : bytes;  (** a store's block, sliced from the pool up front *)
}

(* Closed loop over two hosts: block stores of 64 B-8 KB, each waited to
   its acknowledgement, with 1 in 8 operations a request/reply round trip
   instead. UAM windows, acks and dispatch dominate. [lossy] adds seeded
   0.1% cell loss at the host uplinks and the loss sweep's timers. *)
let uam_prepare ~lossy ~seed ?fault p =
  let rng = Rng.create seed in
  let pool = Rng.bytes rng pool_size in
  let n = max 1 p.msgs in
  let ops =
    Array.init n (fun _ ->
        let size = 64 + Rng.int rng (8192 - 64 + 1) in
        let rr = Rng.int rng 8 = 0 in
        let size =
          if rr then min size Uam.default_config.chunk_data else size
        in
        let off = Rng.int rng (pool_size - size + 1) in
        {
          u_size = size;
          u_rr = rr;
          u_off = off;
          u_dst = Rng.int rng (region_size - size + 1);
          u_data = (if rr then Bytes.empty else Bytes.sub pool off size);
        })
  in
  let fault =
    match fault with
    | Some _ -> fault
    | None when lossy ->
        Some
          {
            Fault.none with
            Fault.seed;
            sites = [ Fault.Link_up ];
            loss = 0.001;
          }
    | None -> None
  in
  let config =
    if lossy then
      { Uam.default_config with rto = Sim.ms 2; rto_max = Sim.ms 16 }
    else Uam.default_config
  in
  fun ctx ->
    let c =
      setup_call ctx `Create "cluster.create" (fun () ->
          with_fault fault (fun () -> Cluster.create ()))
    in
    let a0, a1 =
      setup_call ctx `Connect "uam.create" (fun () ->
          ( Uam.create ~config (Cluster.node c 0).unet ~rank:0 ~nodes:2,
            Uam.create ~config (Cluster.node c 1).unet ~rank:1 ~nodes:2 ))
    in
    setup_call ctx `Connect "uam.connect" (fun () -> Uam.connect a0 a1);
    let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
    let region = Bytes.make region_size '\000' in
    Uam.Xfer.register_region x1 ~id:1 region;
    let acc = acc n in
    (* round trips carry their op index; the server checks their order *)
    let next_rr = ref 0 and replied = ref (-1) in
    let rr_index = Array.make n (-1) in
    Array.iteri
      (fun k op ->
        if op.u_rr then begin
          rr_index.(k) <- !next_rr;
          incr next_rr
        end)
      ops;
    let served = ref 0 in
    Uam.register_handler a1 h_rr (fun am ~src:_ tk ~args ~payload ->
        let k = args.(0) in
        if k < 0 || k >= n || rr_index.(k) <> !served then
          bad acc "round trip %d arrived out of order" k
        else if
          not (buf_ok pool ~off:ops.(k).u_off ~len:ops.(k).u_size payload)
        then bad acc "round trip %d: payload mismatch" k;
        incr served;
        match tk with
        | Some tk -> Uam.reply am tk ~handler:h_rr_reply ~args:[| k |] ()
        | None -> bad acc "round trip %d dispatched as a reply" k);
    Uam.register_handler a0 h_rr_reply (fun _ ~src:_ _ ~args ~payload:_ ->
        replied := args.(0));
    let stopped = ref false in
    Uam.register_handler a1 h_stop (fun _ ~src:_ _ ~args:_ ~payload:_ ->
        stopped := true);
    let server =
      Proc.spawn ~name:"server" c.sim (fun () ->
          Uam.poll_until a1 (fun () -> !stopped);
          Uam.poll a1)
    in
    let client =
      Proc.spawn ~name:"client" c.sim (fun () ->
          Array.iteri
            (fun k op ->
              let t0 = Sim.now c.sim in
              msg_sent ctx c.sim k;
              let ok =
                if op.u_rr then begin
                  Uam.request a0 ~dst:1 ~handler:h_rr ~args:[| k |]
                    ~payload:
                      (Buf.of_bytes_sub pool ~pos:op.u_off ~len:op.u_size)
                    ();
                  Uam.poll_until a0 (fun () -> !replied = k);
                  true
                end
                else begin
                  Uam.Xfer.store_sync x0 ~dst:1 ~region:1 ~offset:op.u_dst
                    op.u_data;
                  same op.u_data 0 region op.u_dst op.u_size
                end
              in
              if ok then
                complete acc c.sim ~lat:(Sim.now c.sim - t0) ~bytes:op.u_size
              else bad acc "store %d: region mismatch" k;
              msg_delivered ctx c.sim k)
            ops;
          Uam.request a0 ~dst:1 ~handler:h_stop ();
          Uam.flush a0)
    in
    {
      sim = c.sim;
      net = c.net;
      procs = [ server; client ];
      acc;
      finish = ignore;
    }

(* ---- fabric_shuffle ----------------------------------------------- *)

let clos_full = { Atm.Network.pods = 32; spine = 8; hosts_per_pod = 32 }

(* Cross-pod pairs laid out the same way for every seed, up to a seeded
   relabelling: each spine carries [n / spine] pairs, each pod holds the
   same number of endpoints, and no trunk is shared, in either direction.
   No trunk is then offered more than its line rate, so any loss is a
   failure; and no switch output port is fed from two input ports (the
   unused reverse direction of a duplex connection counts too), so every
   route may carry cell trains. The seed picks which pods and hosts play
   each part. Routes take spine (src + dst) mod spine (Atm.Network's
   deterministic ECMP). *)
let fabric_pairs rng (clos : Atm.Network.clos) n =
  let per_spine = 2 * n / clos.spine in
  let pods = Array.init clos.pods Fun.id in
  Rng.shuffle rng pods;
  let used = Hashtbl.create 128 in
  let host pod ok =
    let free =
      List.filter
        (fun h -> (not (Hashtbl.mem used h)) && ok h)
        (List.init clos.hosts_per_pod (fun i -> (pod * clos.hosts_per_pod) + i))
    in
    let h = List.nth free (Rng.int rng (List.length free)) in
    Hashtbl.add used h ();
    h
  in
  List.concat_map
    (fun s ->
      let ps =
        Array.init per_spine (fun k ->
            pods.(((s * per_spine) + k) mod clos.pods))
      in
      Rng.shuffle rng ps;
      List.init (per_spine / 2) (fun k ->
          let src = host ps.(2 * k) (fun _ -> true) in
          (src, host ps.((2 * k) + 1) (fun d -> (src + d) mod clos.spine = s))))
    (List.init clos.spine Fun.id)

let fabric_build ~fault ~(clos : Atm.Network.clos) ~pool ~per flows ctx =
  let c =
    setup_call ctx `Create "cluster.create" (fun () ->
        with_fault fault (fun () ->
            Cluster.create ~topology:(Atm.Network.Clos clos) ()))
  in
  let acc = acc (List.length flows * per) in
  let sinks = ref [] in
  let procs =
    List.mapi
      (fun i f ->
        let ns, es = raw_sender c ctx f.src pool in
        let nd, ed = raw_sink c ctx f.dst in
        sinks := (f, ed) :: !sinks;
        let chan, _ =
          setup_call ctx `Connect "unet.connect_pair" (fun () ->
              Unet.connect_pair (ns.unet, es) (nd.unet, ed))
        in
        [
          Proc.spawn ~name:"sink" c.sim
            (raw_sink_proc ctx acc f ~id0:(i * per) ~pool nd.unet ed c.sim);
          Proc.spawn ~name:"source" c.sim
            (open_loop_source ctx acc f ~id0:(i * per) ns.unet es chan c.sim);
        ])
      flows
    |> List.concat
  in
  (c, acc, procs, !sinks)

let fabric_cleanup () =
  Pathrec.stop ();
  Atm.Flowstat.disable ()

(* Open loop over the 1024-host Clos, built with Cluster.create: 64
   seeded cross-pod pairs stream 5056 B raw messages at 90% of line rate,
   with flow accounting and path records attached as the fabric
   experiment runs them. The only large set-up, the only shared trunk
   ports, and the only train-granular observers. *)
let fabric_prepare ~seed ?fault p =
  let rng = Rng.create seed in
  let pool = Rng.bytes rng pool_size in
  let clos = p.clos in
  let npairs = max 1 (min 64 (clos.pods * clos.hosts_per_pod / 16)) in
  let per = max 1 (p.msgs / npairs) in
  let flows =
    List.map
      (fun (src, dst) ->
        let sizes = Array.make per 5056 in
        {
          src;
          dst;
          sizes;
          offs = raw_offsets rng per sizes;
          due = poisson rng sizes ~load:0.9;
        })
      (fabric_pairs rng clos npairs)
  in
  fun ctx ->
    Atm.Flowstat.configure ~exact_flows:16 ~k:4 ();
    Pathrec.start ();
    Pathrec.clear ();
    match fabric_build ~fault ~clos ~pool ~per flows ctx with
    | exception e ->
        fabric_cleanup ();
        raise e
    | c, acc, procs, sinks ->
        {
          sim = c.sim;
          net = c.net;
          procs;
          acc;
          finish =
            (fun () ->
              fabric_cleanup ();
              List.iter (fun (f, ep) -> check_drained acc f ep) sinks);
        }

(* ---- the catalogue ------------------------------------------------ *)

let all =
  [
    {
      name = "raw_pingpong";
      open_loop = false;
      full = { msgs = 120_000; clos = clos_full };
      prepare = pingpong_prepare;
    };
    {
      name = "raw_stream";
      open_loop = true;
      full = { msgs = 6_000; clos = clos_full };
      prepare = stream_prepare;
    };
    {
      name = "uam_store";
      open_loop = false;
      full = { msgs = 4_000; clos = clos_full };
      prepare = uam_prepare ~lossy:false;
    };
    {
      name = "uam_lossy";
      open_loop = false;
      full = { msgs = 3_000; clos = clos_full };
      prepare = uam_prepare ~lossy:true;
    };
    {
      name = "fabric_shuffle";
      open_loop = true;
      full = { msgs = 3_200; clos = clos_full };
      prepare = fabric_prepare;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
