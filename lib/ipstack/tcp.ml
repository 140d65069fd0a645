open Engine

let log_src = Logs.Src.create "ipstack.tcp" ~doc:"TCP state machine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Registered at module-init time so the tcp_* families appear in every
   metrics dump, even from experiments that carry no TCP traffic. *)
let m_retx =
  Metrics.counter ~help:"TCP segments retransmitted (any cause)"
    "tcp_retransmits_total" []

let m_fast =
  Metrics.counter ~help:"TCP fast retransmits (triple duplicate ack)"
    "tcp_fast_retransmits_total" []

let m_rto =
  Metrics.counter ~help:"TCP retransmission-timer fires"
    "tcp_rto_fires_total" []

let m_cwnd =
  Metrics.histogram ~help:"TCP congestion window samples on ack receipt (bytes)"
    "tcp_cwnd_bytes" []

(* ------------------------------------------------------------------ *)
(* Circular byte buffer addressed by absolute stream offsets.          *)

module Bytebuf = struct
  type t = {
    data : bytes;
    cap : int;
    mutable base : int; (* stream offset of the first byte held *)
    mutable base_idx : int; (* its index in [data] *)
    mutable len : int;
  }

  let create cap =
    { data = Bytes.create cap; cap; base = 0; base_idx = 0; len = 0 }

  let space t = t.cap - t.len
  let length t = t.len
  let base t = t.base
  let tail t = t.base + t.len

  let set_base t b =
    if t.len <> 0 then invalid_arg "Bytebuf.set_base: non-empty";
    t.base <- b

  (* append as much of [src] as fits; returns the number of bytes taken.
     The blit into the ring is a counted copy (socket-buffer fill). *)
  let append t ~layer src pos len =
    let n = min len (space t) in
    let start = (t.base_idx + t.len) mod t.cap in
    let first = min n (t.cap - start) in
    if first > 0 then
      Buf.copy_into ~layer (Buf.sub src ~pos ~len:first) ~dst:t.data
        ~dst_pos:start;
    if n > first then
      Buf.copy_into ~layer
        (Buf.sub src ~pos:(pos + first) ~len:(n - first))
        ~dst:t.data ~dst_pos:0;
    t.len <- t.len + n;
    n

  (* copy out [len] bytes starting at absolute stream offset [abs]. This is
     a counted copy, not a view: the ring reuses its storage once data is
     acked, but emitted segments (and frames still on the wire) may outlive
     that — retransmittable data must own its bytes. *)
  let read t ~layer ~abs ~len =
    if abs < t.base || abs + len > tail t then
      invalid_arg "Bytebuf.read: range not buffered";
    let out = Bytes.create len in
    let start = (t.base_idx + (abs - t.base)) mod t.cap in
    let first = min len (t.cap - start) in
    Buf.blit_bytes ~layer ~src:t.data ~src_pos:start ~dst:out ~dst_pos:0
      ~len:first;
    if len > first then
      Buf.blit_bytes ~layer ~src:t.data ~src_pos:0 ~dst:out ~dst_pos:first
        ~len:(len - first);
    out

  (* drop [n] bytes from the front *)
  let advance t n =
    if n < 0 || n > t.len then invalid_arg "Bytebuf.advance";
    t.base <- t.base + n;
    t.base_idx <- (t.base_idx + n) mod t.cap;
    t.len <- t.len - n
end

(* ------------------------------------------------------------------ *)

type config = {
  mss : int;
  sndbuf : int;
  rcvbuf : int;
  granularity : Sim.time;
  delayed_ack : bool;
  delack_timeout : Sim.time;
  initial_rto : Sim.time;
  max_rto : Sim.time;
  send_cost : int -> int;
  recv_cost : int -> int;
}

let unet_config ?(window = 8 * 1024) () =
  {
    mss = 2048;
    sndbuf = window;
    rcvbuf = window;
    granularity = Sim.ms 1;
    delayed_ack = false;
    delack_timeout = Sim.ms 200;
    initial_rto = Sim.ms 2;
    max_rto = Sim.sec 1;
    (* ≈9 µs per data segment of user-level TCP processing (checksum
       combined with the copy) — the 157 µs small-message round trip of
       Table 3; bare acks are a 40-byte header handled in ~4 µs, cheap
       enough to disable delayed acks entirely (§7.8) *)
    send_cost =
      (fun len ->
        if len = 0 then 4_000 else 9_000 + (Checksum.cost_ns len / 4));
    recv_cost =
      (fun len ->
        if len = 0 then 4_000 else 9_000 + (Checksum.cost_ns len / 4));
  }

let kernel_config ?(window = 64 * 1024) ?(mss = 9_148) kcfg =
  {
    mss;
    sndbuf = window;
    rcvbuf = window;
    granularity = Sim.ms 500;
    delayed_ack = true;
    delack_timeout = Sim.ms 200;
    initial_rto = Sim.sec 1;
    max_rto = Sim.sec 64;
    send_cost = (fun len -> Host.Kernel.send_cost kcfg Host.Kernel.Tcp ~len);
    recv_cost = (fun len -> Host.Kernel.recv_cost kcfg Host.Kernel.Tcp ~len);
  }

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Closed -> "closed"
    | Listen -> "listen"
    | Syn_sent -> "syn-sent"
    | Syn_rcvd -> "syn-rcvd"
    | Established -> "established"
    | Fin_wait_1 -> "fin-wait-1"
    | Fin_wait_2 -> "fin-wait-2"
    | Close_wait -> "close-wait"
    | Closing -> "closing"
    | Last_ack -> "last-ack"
    | Time_wait -> "time-wait")

let header_size = 20
let f_fin = 1
let f_syn = 2
let f_ack = 16

(* Sequence space: both directions use ISS 0, so the SYN is stream offset 0
   and data begins at offset 1. A queued FIN occupies offset [fin_seq] =
   one past the last data byte. Offsets are plain ints (runs stay far below
   the 2^30 wire wrap we mask with). *)

type t = {
  stack : stack;
  cfg : config;
  lport : int;
  rport : int;
  raddr : int;
  cond : Sync.Condition.t;
  mutable st : state;
  (* send side; sndbuf holds unacked/unsent data *)
  sndbuf : Bytebuf.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable fin_queued : bool;
  mutable fin_seq : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable rwnd : int;
  mutable dup_acks : int;
  (* Jacobson RTT estimation; at most one timed segment in flight *)
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : Sim.time;
  mutable timing : (int * Sim.time) option;
  (* receive side; rcvbuf.base is the application's read point *)
  rcvbuf : Bytebuf.t;
  mutable rcv_nxt : int;
  mutable ooo : (int * Buf.t * bool) list;
      (* (seq, data, fin) sorted; retained views of delivered packets,
         which own their storage *)
  mutable fin_rcvd : bool;
  mutable segs_since_ack : int;
  (* timers *)
  mutable retx_timer : Sim.handle option;
  mutable delack_timer : Sim.handle option;
  (* stats *)
  mutable n_retx : int;
  mutable n_fast_retx : int;
  mutable n_timeouts : int;
  (* seq -> span of the first emission, for retransmit parentage; pruned
     below snd_una as acks arrive *)
  seg_ctx : (int, Span.ctx) Hashtbl.t;
}

and listener = {
  l_port : int;
  l_stack : stack;
  l_accepted : t Queue.t;
  l_cond : Sync.Condition.t;
}

and stack = {
  s_ip : Ipv4.t;
  s_cfg : config;
  s_conns : (int * int * int, t) Hashtbl.t;
  s_listeners : (int, listener) Hashtbl.t;
  mutable s_next_port : int;
}

let ip st = st.s_ip
let sim_of t = Ipv4.sim t.stack.s_ip
let state t = t.st
let retransmits t = t.n_retx
let fast_retransmits t = t.n_fast_retx
let timeouts t = t.n_timeouts
let cwnd t = t.cwnd
let srtt_us t = t.srtt /. 1_000.
let unacked t = Bytebuf.tail t.sndbuf - t.snd_una

(* --- segment emission --------------------------------------------- *)

(* Span parentage for data segments: first emission of a sequence number
   mints a root; any re-emission (RTO go-back-N, fast retransmit, window
   probe) is a child of the original, so retries stay in the same trace. *)
let seg_span t ~seq ~len =
  if len = 0 then None
  else
    let host = Ipv4.addr t.stack.s_ip in
    match Hashtbl.find_opt t.seg_ctx seq with
    | Some orig -> Some (Span.child ~host "tcp_retx" orig)
    | None ->
        let ctx = Span.root ~host "tcp_seg" in
        Hashtbl.replace t.seg_ctx seq ctx;
        Some ctx

let emit t ~flags ~seq ~payload =
  let len = Bytes.length payload in
  let hdr = Bytes.create header_size in
  Bytes.set_uint16_be hdr 0 t.lport;
  Bytes.set_uint16_be hdr 2 t.rport;
  Bytes.set_int32_be hdr 4 (Int32.of_int (seq land 0x3FFFFFFF));
  Bytes.set_int32_be hdr 8 (Int32.of_int (t.rcv_nxt land 0x3FFFFFFF));
  Bytes.set_uint8 hdr 12 ((header_size / 4) lsl 4);
  Bytes.set_uint8 hdr 13 flags;
  Bytes.set_uint16_be hdr 14 (min 0xffff (Bytebuf.space t.rcvbuf));
  Bytes.set_uint16_be hdr 16 0;
  Bytes.set_uint16_be hdr 18 0;
  (* header prepend by slice concatenation; [payload] comes out of
     Bytebuf.read and is owned by this segment *)
  let pdu = Buf.append (Buf.of_bytes hdr) (Buf.of_bytes payload) in
  let c = Checksum.compute_buf pdu in
  Bytes.set_uint16_be hdr 16 (if c = 0 then 0xffff else c);
  (* every segment carries the current cumulative ack *)
  t.segs_since_ack <- 0;
  (match t.delack_timer with
  | Some h ->
      Sim.cancel h;
      t.delack_timer <- None
  | None -> ());
  let ctx = seg_span t ~seq ~len in
  Ipv4.send t.stack.s_ip Ipv4.Tcp ?ctx ~dst:t.raddr
    ~cost_ns:(t.cfg.send_cost len) pdu

let round_to_granularity t delay =
  let g = t.cfg.granularity in
  (delay + g - 1) / g * g

let cancel_retx t =
  match t.retx_timer with
  | Some h ->
      Sim.cancel h;
      t.retx_timer <- None
  | None -> ()

let data_end t = Bytebuf.tail t.sndbuf
let send_limit t = if t.fin_queued then t.fin_seq + 1 else data_end t
let flight t = t.snd_nxt - t.snd_una

(* Directed flow keys for the flight recorder: the sender reports pending
   (unacked) bytes under its own address first; the receiver reports
   deliveries under the mirrored key. *)
let flow_key t =
  Printf.sprintf "tcp.%d:%d->%d:%d"
    (Ipv4.addr t.stack.s_ip)
    t.lport t.raddr t.rport

let rev_flow_key t =
  Printf.sprintf "tcp.%d:%d->%d:%d" t.raddr t.rport
    (Ipv4.addr t.stack.s_ip)
    t.lport

let report_flight t =
  if Recorder.armed () then
    Recorder.sender_pending ~key:(flow_key t) (flight t)

(* Per-connection resource probes; sampled only while a timeseries
   collection is running. *)
let watch_conn t =
  let labels =
    [
      ("host", string_of_int (Ipv4.addr t.stack.s_ip));
      ("lport", string_of_int t.lport);
      ("rport", string_of_int t.rport);
    ]
  in
  Timeseries.register "tcp_cwnd" labels (fun () -> float_of_int t.cwnd);
  Timeseries.register "tcp_flight" labels (fun () -> float_of_int (flight t));
  Timeseries.register "tcp_rto_ns" labels (fun () -> float_of_int t.rto)

(* --- transmission pump, timers ------------------------------------ *)

let rec arm_retx t =
  if t.retx_timer = None then
    t.retx_timer <-
      Some
        (Sim.schedule ~label:"tcp.rto" (sim_of t)
           ~delay:(round_to_granularity t t.rto)
           (fun () ->
             t.retx_timer <- None;
             on_retx_timeout t))

and note_rto t =
  Metrics.Counter.inc m_rto;
  Metrics.Counter.inc m_retx;
  if Trace.enabled () then
    Trace.instant Trace.Tcp "tcp.rto"
      ~args:[ ("port", Trace.Int t.lport); ("rto_ns", Trace.Int t.rto) ]

and on_retx_timeout t =
  match t.st with
  | Syn_sent ->
      t.n_retx <- t.n_retx + 1;
      note_rto t;
      t.rto <- min t.cfg.max_rto (t.rto * 2);
      emit t ~flags:f_syn ~seq:0 ~payload:Bytes.empty;
      arm_retx t
  | Syn_rcvd ->
      t.n_retx <- t.n_retx + 1;
      note_rto t;
      t.rto <- min t.cfg.max_rto (t.rto * 2);
      emit t ~flags:(f_syn lor f_ack) ~seq:0 ~payload:Bytes.empty;
      arm_retx t
  | Closed | Listen | Time_wait -> ()
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
    ->
      if flight t > 0 then begin
        (* timeout: back off, collapse to slow start, go back N *)
        Log.debug (fun m ->
            m "port %d: retransmission timeout (rto=%d ns, flight=%d)"
              t.lport t.rto (flight t));
        t.n_timeouts <- t.n_timeouts + 1;
        t.n_retx <- t.n_retx + 1;
        note_rto t;
        t.rto <- min t.cfg.max_rto (t.rto * 2);
        t.ssthresh <- max (2 * t.cfg.mss) (flight t / 2);
        t.cwnd <- t.cfg.mss;
        t.dup_acks <- 0;
        t.timing <- None;
        t.snd_nxt <- t.snd_una;
        pump t;
        arm_retx t
      end
      else if Bytebuf.length t.sndbuf > 0 && t.rwnd = 0 then begin
        (* persist: probe the zero window with one byte *)
        t.n_retx <- t.n_retx + 1;
        note_rto t;
        let payload =
          Bytebuf.read t.sndbuf ~layer:"tcp_sndbuf" ~abs:t.snd_una ~len:1
        in
        emit t ~flags:f_ack ~seq:t.snd_una ~payload;
        t.rto <- min t.cfg.max_rto (t.rto * 2);
        arm_retx t
      end

and pump t =
  match t.st with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack ->
      let continue = ref true in
      while !continue do
        let window = min t.cwnd t.rwnd in
        let usable = window - flight t in
        if t.snd_nxt >= send_limit t then continue := false
        else if t.snd_nxt = t.fin_seq && t.fin_queued then begin
          (* bare FIN: doesn't consume window space *)
          emit t ~flags:(f_fin lor f_ack) ~seq:t.snd_nxt ~payload:Bytes.empty;
          t.snd_nxt <- t.snd_nxt + 1;
          arm_retx t
        end
        else if usable <= 0 then continue := false
        else begin
          let data_len =
            min (min t.cfg.mss usable) (data_end t - t.snd_nxt)
          in
          if data_len <= 0 then continue := false
          else begin
            let payload =
              Bytebuf.read t.sndbuf ~layer:"tcp_sndbuf" ~abs:t.snd_nxt
                ~len:data_len
            in
            let fin_now = t.fin_queued && t.snd_nxt + data_len = t.fin_seq in
            let flags = if fin_now then f_fin lor f_ack else f_ack in
            if t.timing = None then
              t.timing <- Some (t.snd_nxt + data_len, Sim.now (sim_of t));
            emit t ~flags ~seq:t.snd_nxt ~payload;
            t.snd_nxt <- t.snd_nxt + data_len + (if fin_now then 1 else 0);
            arm_retx t
          end
        end
      done;
      report_flight t
  | _ -> ()

(* --- acknowledgment policy ----------------------------------------- *)

let send_ack t = emit t ~flags:f_ack ~seq:t.snd_nxt ~payload:Bytes.empty

let schedule_ack t =
  if not t.cfg.delayed_ack then send_ack t
  else begin
    t.segs_since_ack <- t.segs_since_ack + 1;
    if t.segs_since_ack >= 2 then send_ack t
    else if t.delack_timer = None then
      t.delack_timer <-
        Some
          (Sim.schedule ~label:"tcp.delack" (sim_of t)
             ~delay:t.cfg.delack_timeout (fun () ->
               t.delack_timer <- None;
               send_ack t))
  end

(* --- input processing ----------------------------------------------- *)

let update_rtt t sample_ns =
  let s = float_of_int sample_ns in
  if t.srtt = 0. then begin
    t.srtt <- s;
    t.rttvar <- s /. 2.
  end
  else begin
    let err = s -. t.srtt in
    t.srtt <- t.srtt +. (0.125 *. err);
    t.rttvar <- t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar))
  end;
  let rto = int_of_float (t.srtt +. (4. *. t.rttvar)) in
  t.rto <- max t.cfg.granularity (min t.cfg.max_rto rto)

let fin_acked t = t.fin_queued && t.snd_una > t.fin_seq

let on_fin_acked t =
  match t.st with
  | Fin_wait_1 -> t.st <- Fin_wait_2
  | Closing -> t.st <- Time_wait
  | Last_ack -> t.st <- Closed
  | _ -> ()

let retransmit_one t =
  (* fast retransmit: resend the segment at snd_una *)
  let data_len = min t.cfg.mss (data_end t - t.snd_una) in
  if data_len > 0 then begin
    let payload =
      Bytebuf.read t.sndbuf ~layer:"tcp_sndbuf" ~abs:t.snd_una ~len:data_len
    in
    let fin_now = t.fin_queued && t.snd_una + data_len = t.fin_seq in
    emit t
      ~flags:(if fin_now then f_fin lor f_ack else f_ack)
      ~seq:t.snd_una ~payload
  end
  else if t.fin_queued && t.snd_una = t.fin_seq then
    emit t ~flags:(f_fin lor f_ack) ~seq:t.snd_una ~payload:Bytes.empty

let process_ack t ack =
  if ack > t.snd_una then begin
    let data_ack = min ack (data_end t) in
    if data_ack > Bytebuf.base t.sndbuf then
      Bytebuf.advance t.sndbuf (data_ack - Bytebuf.base t.sndbuf);
    t.snd_una <- ack;
    if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
    if Hashtbl.length t.seg_ctx > 0 then
      Hashtbl.filter_map_inplace
        (fun seq ctx -> if seq < t.snd_una then None else Some ctx)
        t.seg_ctx;
    t.dup_acks <- 0;
    (match t.timing with
    | Some (seq, sent_at) when ack >= seq ->
        update_rtt t (Sim.now (sim_of t) - sent_at);
        t.timing <- None
    | _ -> ());
    (* congestion window growth *)
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + t.cfg.mss
    else t.cwnd <- t.cwnd + max 1 (t.cfg.mss * t.cfg.mss / t.cwnd);
    Metrics.Histogram.observe m_cwnd (float_of_int t.cwnd);
    cancel_retx t;
    if flight t > 0 then arm_retx t
    else if Bytebuf.length t.sndbuf > 0 && t.rwnd = 0 then
      (* everything acked but the peer closed its window: arm the persist
         timer so a lost window update cannot deadlock the connection *)
      arm_retx t;
    if fin_acked t then on_fin_acked t;
    Sync.Condition.broadcast t.cond;
    pump t
  end
  else if ack = t.snd_una && flight t > 0 then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks = 3 then begin
      t.n_fast_retx <- t.n_fast_retx + 1;
      t.n_retx <- t.n_retx + 1;
      Metrics.Counter.inc m_fast;
      Metrics.Counter.inc m_retx;
      if Trace.enabled () then
        Trace.instant Trace.Tcp "tcp.fast_retx"
          ~args:[ ("port", Trace.Int t.lport) ];
      t.ssthresh <- max (2 * t.cfg.mss) (flight t / 2);
      t.cwnd <- t.ssthresh;
      t.timing <- None;
      retransmit_one t
    end
  end

let rec drain_ooo t =
  match t.ooo with
  | (seq, data, fin) :: rest when seq <= t.rcv_nxt ->
      t.ooo <- rest;
      let skip = t.rcv_nxt - seq in
      if skip <= Buf.length data then begin
        let fresh = Buf.length data - skip in
        let n = Bytebuf.append t.rcvbuf ~layer:"tcp_rcvbuf" data skip fresh in
        t.rcv_nxt <- t.rcv_nxt + n;
        if n = fresh && fin then begin
          t.fin_rcvd <- true;
          t.rcv_nxt <- t.rcv_nxt + 1
        end
      end;
      drain_ooo t
  | _ -> ()

let on_fin_received t =
  match t.st with
  | Established -> t.st <- Close_wait
  | Fin_wait_1 -> t.st <- if fin_acked t then Time_wait else Closing
  | Fin_wait_2 -> t.st <- Time_wait
  | _ -> ()

let insert_ooo t seq data fin =
  let rec ins = function
    | [] -> [ (seq, data, fin) ]
    | (s, _, _) :: _ as l when seq < s -> (seq, data, fin) :: l
    | (s, _, _) :: _ as l when seq = s -> l (* duplicate *)
    | x :: rest -> x :: ins rest
  in
  if List.length t.ooo < 64 then t.ooo <- ins t.ooo

let process_data t ~seq ~payload ~fin =
  let len = Buf.length payload in
  if len = 0 && not fin then ()
  else if seq = t.rcv_nxt then begin
    let n = Bytebuf.append t.rcvbuf ~layer:"tcp_rcvbuf" payload 0 len in
    t.rcv_nxt <- t.rcv_nxt + n;
    if n = len && fin then begin
      t.fin_rcvd <- true;
      t.rcv_nxt <- t.rcv_nxt + 1;
      on_fin_received t
    end;
    drain_ooo t;
    if t.fin_rcvd then on_fin_received t;
    Sync.Condition.broadcast t.cond;
    if fin || t.fin_rcvd then send_ack t else schedule_ack t
  end
  else if seq > t.rcv_nxt then begin
    (* out of order: buffer within reason and duplicate-ack immediately *)
    insert_ooo t seq payload fin;
    send_ack t
  end
  else begin
    (* old duplicate (e.g. after our ack was lost): re-ack *)
    let fresh_from = t.rcv_nxt - seq in
    if fresh_from < len then begin
      let n =
        Bytebuf.append t.rcvbuf ~layer:"tcp_rcvbuf" payload fresh_from
          (len - fresh_from)
      in
      t.rcv_nxt <- t.rcv_nxt + n;
      if n = len - fresh_from && fin then begin
        t.fin_rcvd <- true;
        t.rcv_nxt <- t.rcv_nxt + 1;
        on_fin_received t
      end;
      drain_ooo t;
      Sync.Condition.broadcast t.cond
    end;
    send_ack t
  end

(* --- connection setup ------------------------------------------------ *)

let mk_conn stack ~lport ~raddr ~rport ~st =
  {
    stack;
    cfg = stack.s_cfg;
    lport;
    rport;
    raddr;
    cond = Sync.Condition.create (Ipv4.sim stack.s_ip);
    st;
    sndbuf = Bytebuf.create stack.s_cfg.sndbuf;
    snd_una = 0;
    snd_nxt = 1;
    fin_queued = false;
    fin_seq = max_int;
    cwnd = 2 * stack.s_cfg.mss;
    ssthresh = 0xffff * 4;
    rwnd = stack.s_cfg.mss;
    dup_acks = 0;
    srtt = 0.;
    rttvar = 0.;
    rto = stack.s_cfg.initial_rto;
    timing = None;
    rcvbuf = Bytebuf.create stack.s_cfg.rcvbuf;
    rcv_nxt = 0;
    ooo = [];
    fin_rcvd = false;
    segs_since_ack = 0;
    retx_timer = None;
    delack_timer = None;
    n_retx = 0;
    n_fast_retx = 0;
    n_timeouts = 0;
    seg_ctx = Hashtbl.create 8;
  }

let conn_key t = (t.lport, t.raddr, t.rport)

let establish_buffers t =
  Bytebuf.set_base t.sndbuf 1;
  Bytebuf.set_base t.rcvbuf 1;
  t.rcv_nxt <- 1

let conn_input t ~flags ~seq ~ack_no ~window ~payload =
  (* any arrival on the connection proves the remote->local direction
     alive, which exonerates it from the stall watchdog *)
  if Recorder.armed () then Recorder.flow_delivered ~key:(rev_flow_key t);
  t.rwnd <- window;
  let syn = flags land f_syn <> 0 in
  let ackf = flags land f_ack <> 0 in
  let fin = flags land f_fin <> 0 in
  match t.st with
  | Syn_sent when syn && ackf && ack_no >= 1 ->
      establish_buffers t;
      t.snd_una <- 1;
      t.st <- Established;
      send_ack t;
      Sync.Condition.broadcast t.cond
  | Syn_sent -> ()
  | Syn_rcvd ->
      if syn then (* duplicate SYN: re-send SYN+ACK *)
        emit t ~flags:(f_syn lor f_ack) ~seq:0 ~payload:Bytes.empty
      else if ackf && ack_no >= 1 then begin
        t.snd_una <- max t.snd_una 1;
        t.st <- Established;
        cancel_retx t;
        (match Hashtbl.find_opt t.stack.s_listeners t.lport with
        | Some l ->
            Queue.add t l.l_accepted;
            Sync.Condition.broadcast l.l_cond
        | None -> ());
        (* the ack may carry data *)
        if Buf.length payload > 0 || fin then
          process_data t ~seq ~payload ~fin;
        Sync.Condition.broadcast t.cond
      end
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
  | Time_wait ->
      if syn then
        (* duplicate handshake segment (our ack was lost): re-ack *)
        send_ack t
      else begin
        if ackf then process_ack t ack_no;
        process_data t ~seq ~payload ~fin;
        (* a bare window update (duplicate ack number, larger window) must
           restart transmission even though it acknowledges nothing new *)
        pump t
      end
  | Closed | Listen -> ()

(* --- stack / demux --------------------------------------------------- *)

let attach ipv4 cfg =
  let stack =
    {
      s_ip = ipv4;
      s_cfg = cfg;
      s_conns = Hashtbl.create 16;
      s_listeners = Hashtbl.create 4;
      s_next_port = 32_768;
    }
  in
  let rx_cost payload =
    cfg.recv_cost (max 0 (Buf.length payload - header_size))
  in
  let rx ~src payload =
    if Buf.length payload < header_size then ()
    else if not (Checksum.verify_buf payload) then ()
    else begin
      let sport = Buf.get_uint16_be payload 0 in
      let dport = Buf.get_uint16_be payload 2 in
      let seq = Int32.to_int (Buf.get_uint32_be payload 4) in
      let ack_no = Int32.to_int (Buf.get_uint32_be payload 8) in
      let flags = Buf.get_uint8 payload 13 in
      let window = Buf.get_uint16_be payload 14 in
      let data =
        Buf.sub payload ~pos:header_size
          ~len:(Buf.length payload - header_size)
      in
      match Hashtbl.find_opt stack.s_conns (dport, src, sport) with
      | Some conn ->
          conn_input conn ~flags ~seq ~ack_no ~window ~payload:data
      | None -> (
          match Hashtbl.find_opt stack.s_listeners dport with
          | Some _ when flags land f_syn <> 0 && flags land f_ack = 0 ->
              let conn =
                mk_conn stack ~lport:dport ~raddr:src ~rport:sport
                  ~st:Syn_rcvd
              in
              establish_buffers conn;
              conn.rwnd <- window;
              Hashtbl.replace stack.s_conns (conn_key conn) conn;
              watch_conn conn;
              emit conn ~flags:(f_syn lor f_ack) ~seq:0 ~payload:Bytes.empty;
              arm_retx conn
          | _ -> ())
    end
  in
  Ipv4.register ipv4 Ipv4.Tcp ~rx_cost_ns:rx_cost rx;
  stack

let listen stack ~port =
  if Hashtbl.mem stack.s_listeners port then
    Fmt.invalid_arg "Tcp.listen: port %d taken" port;
  let l =
    {
      l_port = port;
      l_stack = stack;
      l_accepted = Queue.create ();
      l_cond = Sync.Condition.create (Ipv4.sim stack.s_ip);
    }
  in
  Hashtbl.replace stack.s_listeners port l;
  l

let accept l =
  let rec loop () =
    match Queue.take_opt l.l_accepted with
    | Some c -> c
    | None ->
        Sync.Condition.wait l.l_cond;
        loop ()
  in
  loop ()

let connect stack ~dst ~dst_port ?src_port () =
  let lport =
    match src_port with
    | Some p -> p
    | None ->
        let p = stack.s_next_port in
        stack.s_next_port <- stack.s_next_port + 1;
        p
  in
  let t = mk_conn stack ~lport ~raddr:dst ~rport:dst_port ~st:Syn_sent in
  Hashtbl.replace stack.s_conns (conn_key t) t;
  watch_conn t;
  emit t ~flags:f_syn ~seq:0 ~payload:Bytes.empty;
  arm_retx t;
  Sync.Condition.wait_for t.cond (fun () -> t.st = Established);
  t

(* --- application interface ------------------------------------------- *)

let send t data =
  (match t.st with
  | Established | Close_wait -> ()
  | st -> Fmt.invalid_arg "Tcp.send in state %a" pp_state st);
  let len = Bytes.length data in
  let src = Buf.of_bytes data in
  let pos = ref 0 in
  while !pos < len do
    let n = Bytebuf.append t.sndbuf ~layer:"tcp_app" src !pos (len - !pos) in
    pos := !pos + n;
    pump t;
    if !pos < len then
      (* send buffer full: wait for acknowledgments to free space *)
      Sync.Condition.wait_for t.cond (fun () ->
          Bytebuf.space t.sndbuf > 0 || t.st = Closed)
  done

let at_eof t = t.fin_rcvd && Bytebuf.length t.rcvbuf = 0

let recv t ~max =
  Sync.Condition.wait_for t.cond (fun () ->
      Bytebuf.length t.rcvbuf > 0 || at_eof t || t.st = Closed);
  let n = min max (Bytebuf.length t.rcvbuf) in
  if n = 0 then Bytes.empty (* EOF *)
  else begin
    let low_window_before = Bytebuf.space t.rcvbuf < t.cfg.mss in
    let out =
      Bytebuf.read t.rcvbuf ~layer:"tcp_app" ~abs:(Bytebuf.base t.rcvbuf)
        ~len:n
    in
    Bytebuf.advance t.rcvbuf n;
    (* window update once the application frees significant space *)
    if low_window_before && Bytebuf.space t.rcvbuf >= t.cfg.mss then
      send_ack t;
    out
  end

let recv_exact t ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let chunk = recv t ~max:(len - !pos) in
    if Bytes.length chunk = 0 then raise End_of_file;
    Bytes.blit chunk 0 out !pos (Bytes.length chunk);
    pos := !pos + Bytes.length chunk
  done;
  out

let close t =
  if not t.fin_queued then begin
    t.fin_queued <- true;
    t.fin_seq <- data_end t;
    (match t.st with
    | Established -> t.st <- Fin_wait_1
    | Close_wait -> t.st <- Last_ack
    | _ -> ());
    pump t
  end
