open Engine

let log_src = Logs.Src.create "uam" ~doc:"U-Net Active Messages"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Module-level so the uam_* families exist in every dump; per-instance
   counts remain available through the accessors below. *)
let m_reqs =
  Metrics.counter ~help:"Active Message requests sent" "uam_requests_total" []

let m_reps =
  Metrics.counter ~help:"Active Message replies sent" "uam_replies_total" []

let m_retx =
  Metrics.counter ~help:"go-back-N retransmissions of unacked messages"
    "uam_retransmissions_total" []

let m_dups =
  Metrics.counter
    ~help:"duplicate or out-of-order sequenced messages discarded"
    "uam_duplicates_total" []

let max_args = 4
(* handler indices 240+ are reserved for Xfer *)

(* Wire format of a UAM message (carried as one U-Net message):
   byte 0: low 2 bits message type (0 REQ / 1 REP / 2 ACK), next 3 bits nargs
   byte 1: handler index
   bytes 2-3: sequence number (u16 LE; ACKs carry 0)
   bytes 4-5: cumulative acknowledgment = next sequence expected (u16 LE)
   then nargs * 4 bytes of arguments, then the payload.
   A 4-arg-free request with up to 34 bytes of payload fits a single cell,
   which is what makes the paper's 71 µs single-cell UAM round trip. *)
let header_size = 6

type msg_type = Req | Rep | Ack

let type_code = function Req -> 0 | Rep -> 1 | Ack -> 2

let code_type = function
  | 0 -> Req
  | 1 -> Rep
  | 2 -> Ack
  | n -> Fmt.failwith "Uam: bad message type %d" n

(* 16-bit serial arithmetic; windows are tiny compared to the 32k horizon. *)
let seq_lt a b = (b - a) land 0xffff <> 0 && (b - a) land 0xffff < 0x8000

type config = {
  window : int;
  rto : Sim.time;
  rto_max : Sim.time;
  op_ns : int;
  chunk_data : int;
}

let default_config =
  {
    window = 8;
    rto = Sim.ms 20;
    rto_max = Sim.ms 320;
    op_ns = 800;
    chunk_data = 4_160;
  }

type unacked = {
  u_seq : int;
  u_type : msg_type;
  u_resend : Unet.Desc.payload;
      (* what retransmission re-sends: an owned inline snapshot, or the
         ranges of the transmit buffer the message was staged into (held
         until acknowledged, so it doubles as the retransmission copy) *)
  u_buffer : (int * int) option; (* tx buffer held until acknowledged *)
  u_ctx : Span.ctx option; (* original span: retries become its children *)
}

type peer = {
  p_rank : int;
  p_chan : Unet.Channel.id;
  mutable p_next_seq : int;
  p_unacked : unacked Queue.t;
  mutable p_unacked_reqs : int;
  mutable p_expected : int; (* next seq expected from this peer *)
  mutable p_last_progress : Sim.time; (* for the retransmission timer *)
  mutable p_backoff : int; (* consecutive timeouts without progress *)
  mutable p_rto_timer : Sim.handle option; (* armed while unacked exist *)
  mutable p_need_ack : bool; (* owe the peer an explicit ACK *)
}

type t = {
  cfg : config;
  u : Unet.t;
  ep : Unet.Endpoint.t;
  alloc : Unet.Segment.Allocator.t;
  rank : int;
  nodes : int;
  peers : peer option array;
  handlers : handler option array;
  mutable reqs_sent : int;
  mutable reps_sent : int;
  mutable retx : int;
  mutable dups : int;
}

and token = {
  tk_uam : t;
  tk_src : int;
  mutable tk_replied : bool;
  tk_ctx : Span.ctx option; (* request's span: the reply joins its trace *)
}

and handler =
  t -> src:int -> token option -> args:int array -> payload:Buf.t -> unit

let buffer_block cfg = cfg.chunk_data + header_size + (max_args * 4) + 16

let create ?(config = default_config) u ~rank ~nodes =
  if rank < 0 || rank >= nodes then invalid_arg "Uam.create: bad rank";
  let npeers = max 1 (nodes - 1) in
  let block = buffer_block config in
  (* 4w buffers per peer (§5.1.1): w request-tx + w reply-tx + 2w receive *)
  let nbuffers = 4 * config.window * npeers in
  let seg_size = (nbuffers + 2) * block in
  let slots = max 64 (4 * config.window * npeers) in
  (* the receive half of the buffers goes on the free queue *)
  let ep, alloc =
    Unet.open_endpoint u ~tx_slots:slots ~rx_slots:slots ~free_slots:slots
      ~seg_size ~block
      ~post:(2 * config.window * npeers)
      ()
  in
  {
    cfg = config;
    u;
    ep;
    alloc;
    rank;
    nodes;
    peers = Array.make nodes None;
    handlers = Array.make 256 None;
    reqs_sent = 0;
    reps_sent = 0;
    retx = 0;
    dups = 0;
  }

let rank t = t.rank
let nodes t = t.nodes
let config t = t.cfg
let unet t = t.u
let endpoint t = t.ep
let max_payload t = t.cfg.chunk_data
let requests_sent t = t.reqs_sent
let replies_sent t = t.reps_sent
let retransmissions t = t.retx
let duplicates_dropped t = t.dups

(* Profile frames must live on the same host key the CPU charges use. *)
let phost t = Host.Cpu.host (Unet.cpu t.u)

(* Directed flow key for the flight recorder; both ends build the same
   string for a given direction. *)
let flow_key ~src ~dst = Printf.sprintf "uam.%d->%d" src dst

let watch_peer t (p : peer) =
  Timeseries.register "uam_unacked"
    [ ("rank", string_of_int t.rank); ("peer", string_of_int p.p_rank) ]
    (fun () -> float_of_int (Queue.length p.p_unacked))

let report_pending t (p : peer) =
  if Recorder.armed () then
    Recorder.sender_pending
      ~key:(flow_key ~src:t.rank ~dst:p.p_rank)
      (Queue.length p.p_unacked)

let mk_peer rank chan now =
  {
    p_rank = rank;
    p_chan = chan;
    p_next_seq = 0;
    p_unacked = Queue.create ();
    p_unacked_reqs = 0;
    p_expected = 0;
    p_last_progress = now;
    p_backoff = 0;
    p_rto_timer = None;
    p_need_ack = false;
  }

let connect a b =
  if not (a.nodes = b.nodes) then invalid_arg "Uam.connect: cluster size mismatch";
  if a.rank = b.rank then invalid_arg "Uam.connect: same rank";
  if a.peers.(b.rank) <> None then invalid_arg "Uam.connect: already connected";
  let ch_a, ch_b = Unet.connect_pair (a.u, a.ep) (b.u, b.ep) in
  let pa = mk_peer b.rank ch_a (Sim.now (Unet.sim a.u)) in
  let pb = mk_peer a.rank ch_b (Sim.now (Unet.sim b.u)) in
  a.peers.(b.rank) <- Some pa;
  b.peers.(a.rank) <- Some pb;
  watch_peer a pa;
  watch_peer b pb

let connect_all arr =
  Array.iteri
    (fun i a -> Array.iteri (fun j b -> if i < j then connect a b) arr)
    arr

let register_handler t idx h =
  if idx < 0 || idx > 255 then invalid_arg "Uam.register_handler: bad index";
  t.handlers.(idx) <- Some h

let peer t dst =
  match t.peers.(dst) with
  | Some p -> p
  | None -> Fmt.invalid_arg "Uam: no channel to node %d" dst

(* The wire message is a slice: a fresh header store concatenated with a
   zero-copy view of the caller's payload. It is only materialized where it
   is staged for transmission. *)
let encode ~ty ~handler ~seq ~ack ~args ~payload =
  let nargs = Array.length args in
  if nargs > max_args then invalid_arg "Uam: too many arguments";
  let hdr = Bytes.create (header_size + (4 * nargs)) in
  Bytes.set_uint8 hdr 0 (type_code ty lor (nargs lsl 2));
  Bytes.set_uint8 hdr 1 handler;
  Bytes.set_uint16_le hdr 2 seq;
  Bytes.set_uint16_le hdr 4 ack;
  Array.iteri
    (fun i a -> Bytes.set_int32_le hdr (header_size + (4 * i)) (Int32.of_int a))
    args;
  Buf.append (Buf.of_bytes hdr) payload

type decoded = {
  d_type : msg_type;
  d_handler : int;
  d_seq : int;
  d_ack : int;
  d_args : int array;
  d_payload : Buf.t;
}

let decode b =
  let b0 = Buf.get_uint8 b 0 in
  let ty = code_type (b0 land 3) in
  let nargs = (b0 lsr 2) land 7 in
  let args =
    Array.init nargs (fun i ->
        Int32.to_int (Buf.get_uint32_le b (header_size + (4 * i))))
  in
  let poff = header_size + (4 * nargs) in
  {
    d_type = ty;
    d_handler = Buf.get_uint8 b 1;
    d_seq = Buf.get_uint16_le b 2;
    d_ack = Buf.get_uint16_le b 4;
    d_args = args;
    d_payload = Buf.sub b ~pos:poff ~len:(Buf.length b - poff);
  }

(* Push a serialized message out through U-Net: small messages ride inline
   in the descriptor; larger ones are staged in a transmit buffer which is
   held until acknowledgment (it doubles as the retransmission copy).
   Returns what a retransmission should re-send plus the buffer to release
   on acknowledgment. *)
let unet_transmit ?ctx t (p : peer) (b : Buf.t) =
  if Buf.length b <= Unet.Desc.inline_max then begin
    (* snapshot: the descriptor (and the go-back-N window) must own the
       bytes once the caller's payload buffer is reused *)
    let b = Buf.copy ~layer:"uam_tx" b in
    (match
       Unet.send t.u t.ep
         (Unet.Desc.tx ?ctx ~chan:p.p_chan (Unet.Desc.Inline b))
     with
    | Ok () -> ()
    | Error e -> Fmt.failwith "Uam: send failed: %a" Unet.pp_error e);
    (Unet.Desc.Inline b, None)
  end
  else begin
    match Unet.Segment.Allocator.alloc t.alloc with
    | None -> Fmt.failwith "Uam: transmit buffer pool exhausted"
    | Some (off, blen) ->
        assert (Buf.length b <= blen);
        Unet.Segment.write_buf ~layer:"uam_tx" t.ep.segment ~off b;
        let ranges = Unet.Desc.Buffers [ (off, Buf.length b) ] in
        (match Unet.send t.u t.ep (Unet.Desc.tx ?ctx ~chan:p.p_chan ranges) with
        | Ok () -> ()
        | Error e -> Fmt.failwith "Uam: send failed: %a" Unet.pp_error e);
        (ranges, Some (off, blen))
end

let retransmit_unacked t (p : peer) =
  if not (Queue.is_empty p.p_unacked) then begin
    Log.debug (fun m ->
        m "node %d: retransmitting %d unacked messages to node %d" t.rank
          (Queue.length p.p_unacked) p.p_rank);
    if Trace.enabled () then
      Trace.instant Trace.Am "am.retx" ~tid:t.rank
        ~args:
          [
            ("peer", Trace.Int p.p_rank);
            ("unacked", Trace.Int (Queue.length p.p_unacked));
          ];
    Profile.push ~host:(phost t) "uam.retransmit";
    (* flow accounting (DESIGN.md §17): retransmits are charged to the
       channel's transmit VCI, i.e. the flow the duplicates ride on *)
    let retx_vci =
      match Unet.Endpoint.find_channel t.ep p.p_chan with
      | Some ch -> Some ch.Unet.Channel.tx_vci
      | None -> None
    in
    Queue.iter
      (fun u ->
        t.retx <- t.retx + 1;
        Metrics.Counter.inc m_retx;
        (match retx_vci with
        | Some vci -> Atm.Network.note_retx (Unet.net t.u) ~host:(phost t) ~vci
        | None -> ());
        Host.Cpu.charge ~layer:"uam" (Unet.cpu t.u) t.cfg.op_ns;
        (* each retry is a child span of the original message, so a
           retransmitted message stays one connected trace *)
        let ctx =
          match u.u_ctx with
          | Some orig -> Some (Span.child ~host:t.rank "uam_retx" orig)
          | None -> None
        in
        (* re-send the retained message: the inline snapshot, or the still-
           held transmit buffer — no fresh copy either way *)
        ignore
          (Unet.send t.u t.ep (Unet.Desc.tx ?ctx ~chan:p.p_chan u.u_resend)))
      p.p_unacked;
    Profile.pop ~host:(phost t) ();
    p.p_last_progress <- Sim.now (Unet.sim t.u)
  end

(* Retransmission timeout with exponential backoff, capped at rto_max. *)
let cur_rto t (p : peer) =
  min (t.cfg.rto lsl min p.p_backoff 20) t.cfg.rto_max

(* The self-driving timer stops re-arming after this many consecutive
   unanswered timeouts: a peer that stopped participating (a finished
   program, not a lossy link) would otherwise keep the event queue
   non-empty forever and unbounded [Sim.run]s would never return. A
   later send or poll re-arms it. *)
let max_timeouts = 6

(* The timeout is driven by a scheduled Sim event, so a sender that
   queues messages and then stops polling still retransmits (the timer
   used to run only inside the recv polling loops, and a stalled sender
   never recovered). The timer fires as a bare Sim event, so the actual
   retransmission — which charges send-side CPU — runs in a freshly
   spawned process. *)
let rec arm_rto t (p : peer) =
  cancel_rto p;
  let sim = Unet.sim t.u in
  let at = max (p.p_last_progress + cur_rto t p) (Sim.now sim) in
  p.p_rto_timer <-
    Some (Sim.schedule_at ~label:"uam.rto" sim at (fun () -> on_rto t p))

and cancel_rto (p : peer) =
  match p.p_rto_timer with
  | Some h ->
      Sim.cancel h;
      p.p_rto_timer <- None
  | None -> ()

and on_rto t (p : peer) =
  p.p_rto_timer <- None;
  if not (Queue.is_empty p.p_unacked) then
    if Sim.now (Unet.sim t.u) - p.p_last_progress >= cur_rto t p then
      if p.p_backoff >= max_timeouts then begin
        if Recorder.armed () then
          Recorder.gave_up ~key:(flow_key ~src:t.rank ~dst:p.p_rank);
        Log.debug (fun m ->
            m "node %d: giving up timer-driven retransmission to node %d \
               after %d timeouts"
              t.rank p.p_rank p.p_backoff)
      end
      else begin
        p.p_backoff <- p.p_backoff + 1;
        ignore
          (Proc.spawn ~name:"uam_rto" (Unet.sim t.u) (fun () ->
               retransmit_unacked t p;
               arm_rto t p))
      end
    else
      (* a poller retransmitted or acks progressed since arming: wait out
         the remainder of the (possibly backed-off) timeout *)
      arm_rto t p

let apply_ack t (p : peer) ack =
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt p.p_unacked with
    | Some u when seq_lt u.u_seq ack ->
        ignore (Queue.pop p.p_unacked);
        (match u.u_buffer with
        | Some buf -> Unet.Segment.Allocator.free t.alloc buf
        | None -> ());
        if u.u_type = Req then p.p_unacked_reqs <- p.p_unacked_reqs - 1;
        progressed := true
    | _ -> continue := false
  done;
  if !progressed then begin
    report_pending t p;
    p.p_last_progress <- Sim.now (Unet.sim t.u);
    p.p_backoff <- 0;
    (* keep the timer in step with the window: gone when empty, pushed
       out past the fresh progress otherwise *)
    if Queue.is_empty p.p_unacked then cancel_rto p else arm_rto t p
  end

let send_explicit_ack t (p : peer) =
  Host.Cpu.charge ~layer:"uam" (Unet.cpu t.u) t.cfg.op_ns;
  let b =
    encode ~ty:Ack ~handler:0 ~seq:0 ~ack:p.p_expected ~args:[||]
      ~payload:Buf.empty
  in
  let ctx = Some (Span.root ~host:t.rank "uam_ack") in
  ignore (unet_transmit ?ctx t p b);
  p.p_need_ack <- false

let send_seq ?parent t (p : peer) ~ty ~handler ~args ~payload =
  (* the span starts at the API call: everything up to the doorbell is
     the send-side CPU phase *)
  let ctx =
    let name =
      match ty with Req -> "uam_req" | Rep -> "uam_rep" | Ack -> "uam_ack"
    in
    Some
      (match parent with
      | Some pctx -> Span.child ~host:t.rank name pctx
      | None -> Span.root ~host:t.rank name)
  in
  Profile.push ~host:(phost t) "uam.send";
  Host.Cpu.charge ~layer:"uam" (Unet.cpu t.u) t.cfg.op_ns;
  if Buf.length payload > 0 then
    (* the copy from the source data structure into the transmit buffer *)
    Host.Cpu.charge_copy (Unet.cpu t.u) ~bytes:(Buf.length payload);
  let seq = p.p_next_seq in
  p.p_next_seq <- (p.p_next_seq + 1) land 0xffff;
  let b = encode ~ty ~handler ~seq ~ack:p.p_expected ~args ~payload in
  (* sending also acknowledges everything received so far *)
  p.p_need_ack <- false;
  if Queue.is_empty p.p_unacked then
    p.p_last_progress <- Sim.now (Unet.sim t.u);
  let resend, buffer = unet_transmit ?ctx t p b in
  Profile.pop ~host:(phost t) ();
  Queue.add
    { u_seq = seq; u_type = ty; u_resend = resend; u_buffer = buffer; u_ctx = ctx }
    p.p_unacked;
  report_pending t p;
  if p.p_rto_timer = None then arm_rto t p;
  if ty = Req then begin
    p.p_unacked_reqs <- p.p_unacked_reqs + 1;
    t.reqs_sent <- t.reqs_sent + 1;
    Metrics.Counter.inc m_reqs
  end
  else begin
    t.reps_sent <- t.reps_sent + 1;
    Metrics.Counter.inc m_reps
  end

let dispatch t ~src ?ctx d =
  Profile.push ~host:(phost t) "uam.dispatch";
  (* pop via protect: a raising handler must not leave the frame open *)
  Fun.protect
    ~finally:(fun () -> Profile.pop ~host:(phost t) ())
    (fun () ->
      Host.Cpu.charge ~layer:"uam" (Unet.cpu t.u) t.cfg.op_ns;
      if Buf.length d.d_payload > 0 then
        (* the copy from the receive buffer into the destination structure *)
        Host.Cpu.charge_copy (Unet.cpu t.u) ~bytes:(Buf.length d.d_payload);
      match t.handlers.(d.d_handler) with
      | None -> Fmt.failwith "Uam: no handler %d registered" d.d_handler
      | Some h ->
          (match d.d_type with
          | Req ->
              let tk =
                { tk_uam = t; tk_src = src; tk_replied = false; tk_ctx = ctx }
              in
              h t ~src (Some tk) ~args:d.d_args ~payload:d.d_payload
          | Rep -> h t ~src None ~args:d.d_args ~payload:d.d_payload
          | Ack -> ());
          (* the handler has returned: the message's journey ends here *)
          Span.mark ctx Span.Dispatched)

(* Identify the peer a received U-Net message came from via its channel. *)
let peer_of_chan t chan =
  let found = ref None in
  Array.iter
    (function
      | Some p when p.p_chan = chan -> found := Some p
      | _ -> ())
    t.peers;
  match !found with
  | Some p -> p
  | None -> Fmt.failwith "Uam: message on unknown channel %d" chan

let process_one t (rx : Unet.Desc.rx) =
  let p = peer_of_chan t rx.src_chan in
  (* the handler (and anything it retains) must not see the receive
     buffers refilled *)
  let d = decode (Unet.take t.u t.ep t.alloc ~layer:"uam_rx" rx) in
  (* any arrival — data, duplicate, or bare ACK — proves the peer->us
     direction alive, which is what exonerates it from the stall watchdog *)
  if Recorder.armed () then
    Recorder.flow_delivered ~key:(flow_key ~src:p.p_rank ~dst:t.rank);
  apply_ack t p d.d_ack;
  match d.d_type with
  | Ack -> ()
  | Req | Rep ->
      if d.d_seq = p.p_expected then begin
        p.p_expected <- (p.p_expected + 1) land 0xffff;
        (* every sequenced message needs acknowledging: flag before the
           dispatch so anything the handler sends back to this peer (e.g.
           the reply) clears the flag by carrying the ack, and only
           otherwise does the trailing explicit ACK go out *)
        p.p_need_ack <- true;
        dispatch t ~src:p.p_rank ?ctx:rx.ctx d
      end
      else if seq_lt d.d_seq p.p_expected then begin
        (* duplicate after a retransmission: drop but re-acknowledge *)
        t.dups <- t.dups + 1;
        Metrics.Counter.inc m_dups;
        if Trace.enabled () then
          Trace.instant Trace.Am "am.dup" ~tid:t.rank
            ~args:[ ("peer", Trace.Int p.p_rank); ("seq", Trace.Int d.d_seq) ];
        p.p_need_ack <- true
      end
      else begin
        (* gap: go-back-N discards out-of-order arrivals; the sender's
           timeout recovers *)
        t.dups <- t.dups + 1;
        Metrics.Counter.inc m_dups;
        if Trace.enabled () then
          Trace.instant Trace.Am "am.gap" ~tid:t.rank
            ~args:[ ("peer", Trace.Int p.p_rank); ("seq", Trace.Int d.d_seq) ]
      end

let check_timers t =
  let now = Sim.now (Unet.sim t.u) in
  Array.iter
    (function
      | Some p
        when (not (Queue.is_empty p.p_unacked))
             && now - p.p_last_progress >= cur_rto t p ->
          p.p_backoff <- p.p_backoff + 1;
          retransmit_unacked t p;
          arm_rto t p
      | _ -> ())
    t.peers

let flush_acks t =
  Array.iter
    (function Some p when p.p_need_ack -> send_explicit_ack t p | _ -> ())
    t.peers

let drain t =
  let rec loop () =
    match Unet.poll t.u t.ep with
    | Some rx ->
        process_one t rx;
        loop ()
    | None -> ()
  in
  loop ()

let poll t =
  drain t;
  check_timers t;
  flush_acks t

(* One blocking progress step: wait for an arrival (or half an RTO, so the
   retransmission timer keeps running), then poll. *)
let poll_blocking_step t =
  match Unet.recv_timeout t.u t.ep ~timeout:(max 1 (t.cfg.rto / 2)) with
  | Some rx ->
      process_one t rx;
      drain t
  | None -> poll t

(* Pending explicit acks are flushed when we are about to *wait*, not on the
   fast path out of a satisfied poll: an ack owed after a reply usually
   piggybacks on the caller's next request instead. *)
let poll_until t pred =
  drain t;
  while not (pred ()) do
    check_timers t;
    flush_acks t;
    poll_blocking_step t
  done

let request t ~dst ~handler ?(args = [||]) ?(payload = Buf.empty) () =
  if handler < 0 || handler > 255 then invalid_arg "Uam.request: bad handler";
  if Buf.length payload > t.cfg.chunk_data then
    invalid_arg "Uam.request: payload exceeds the transfer-buffer size";
  let p = peer t dst in
  (* window check: poll for acknowledgments while w requests are in flight *)
  poll_until t (fun () -> p.p_unacked_reqs < t.cfg.window);
  send_seq t p ~ty:Req ~handler ~args ~payload

let reply t tk ~handler ?(args = [||]) ?(payload = Buf.empty) () =
  if tk.tk_replied then invalid_arg "Uam.reply: token already replied";
  if not (tk.tk_uam == t) then invalid_arg "Uam.reply: token from another instance";
  if Buf.length payload > t.cfg.chunk_data then
    invalid_arg "Uam.reply: payload exceeds the transfer-buffer size";
  tk.tk_replied <- true;
  let p = peer t tk.tk_src in
  send_seq ?parent:tk.tk_ctx t p ~ty:Rep ~handler ~args ~payload

let barrier_ready t ~dst =
  let p = peer t dst in
  Queue.is_empty p.p_unacked

let flush t =
  poll_until t (fun () ->
      Array.for_all
        (function Some p -> Queue.is_empty p.p_unacked | None -> true)
        t.peers)
