let log_src = Logs.Src.create "unet.mux" ~doc:"U-Net mux/demux agent"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  table : (int, Endpoint.t * Channel.id) Hashtbl.t;
  host : int;
  copy_layer : string;
  (* registry-backed counters (shared per host label across instances) *)
  m_deliveries : Engine.Metrics.Counter.t;
  m_unknown : Engine.Metrics.Counter.t;
  m_outcomes : (delivery -> Engine.Metrics.Counter.t);
  (* per-instance view, what the accessor reports *)
  mutable unknown : int;
}

and delivery =
  | Delivered_inline
  | Delivered_buffers of (int * int) list
  | Delivered_direct
  | Dropped_rx_full
  | Dropped_no_free_buffer
  | Dropped_bad_offset

let outcome_label = function
  | Delivered_inline -> "inline"
  | Delivered_buffers _ -> "buffers"
  | Delivered_direct -> "direct"
  | Dropped_rx_full -> "drop_rx_full"
  | Dropped_no_free_buffer -> "drop_no_free_buffer"
  | Dropped_bad_offset -> "drop_bad_offset"

let all_outcomes =
  [
    Delivered_inline;
    Delivered_buffers [];
    Delivered_direct;
    Dropped_rx_full;
    Dropped_no_free_buffer;
    Dropped_bad_offset;
  ]

(* Every receive-path discard, wherever it happens (mux outcome, kernel
   mux unknown channel, NI overrun), funnels through here so nothing is
   dropped silently: a labelled counter plus a [Dropped] span mark. *)
let rx_dropped =
  let tbl : (string, Engine.Metrics.Counter.t) Hashtbl.t = Hashtbl.create 8 in
  fun ?ctx reason ->
    let c =
      match Hashtbl.find_opt tbl reason with
      | Some c -> c
      | None ->
          let c =
            Engine.Metrics.counter
              ~help:"messages discarded on the U-Net receive path, by reason"
              "unet_rx_dropped_total"
              [ ("reason", reason) ]
          in
          Hashtbl.add tbl reason c;
          c
    in
    Engine.Metrics.Counter.inc c;
    Engine.Span.mark ctx Engine.Span.Dropped

let create ?host ?(copy_layer = "mux") () =
  let labels =
    match host with None -> [] | Some h -> [ ("host", string_of_int h) ]
  in
  let outcomes =
    List.map
      (fun o ->
        ( outcome_label o,
          Engine.Metrics.counter
            ~help:"U-Net mux deliveries and drops by outcome"
            "unet_mux_outcomes_total"
            (("outcome", outcome_label o) :: labels) ))
      all_outcomes
  in
  {
    table = Hashtbl.create 64;
    host = Option.value host ~default:0;
    copy_layer;
    m_deliveries =
      Engine.Metrics.counter
        ~help:"messages the mux delivered into an endpoint"
        "unet_mux_deliveries_total" labels;
    m_unknown =
      Engine.Metrics.counter
        ~help:"PDUs discarded because no endpoint registered the tag"
        "unet_mux_unknown_tag_drops_total" labels;
    m_outcomes = (fun o -> List.assoc (outcome_label o) outcomes);
    unknown = 0;
  }

let register t ~rx_vci ep ~chan =
  if Hashtbl.mem t.table rx_vci then
    invalid_arg (Printf.sprintf "Mux.register: VCI %d already registered" rx_vci);
  Hashtbl.add t.table rx_vci (ep, chan)

let unregister t ~rx_vci = Hashtbl.remove t.table rx_vci
let lookup t ~rx_vci = Hashtbl.find_opt t.table rx_vci

(* Direct-access framing (§3.6): on direct-access endpoints every PDU
   carries a 5-byte prefix [flag; offset_be32]; flag 1 means "deposit at
   offset". *)
let direct_prefix_size = 5

let frame ~dest_offset data =
  let prefix = Bytes.make direct_prefix_size '\000' in
  Option.iter
    (fun off ->
      Bytes.set_uint8 prefix 0 1;
      Bytes.set_int32_be prefix 1 (Int32.of_int off))
    dest_offset;
  Engine.Buf.append (Engine.Buf.of_bytes prefix) data

(* the prefix bytes a PDU bound for [ep] carries *)
let prefix_len (ep : Endpoint.t) pdu =
  if ep.direct_access && Engine.Buf.length pdu >= direct_prefix_size then
    direct_prefix_size
  else 0

(* Pop free buffers until [len] bytes are covered. On shortage, everything
   is pushed back and the message is dropped whole. *)
let take_free_buffers (ep : Endpoint.t) len =
  let rec loop acc got =
    if got >= len then Some (List.rev acc)
    else
      match Ring.pop ep.free_ring with
      | None ->
          List.iter (fun b -> ignore (Ring.push ep.free_ring b)) (List.rev acc);
          None
      | Some (off, blen) -> loop ((off, blen) :: acc) (got + blen)
  in
  loop [] 0

let fill_buffers ~layer (ep : Endpoint.t) buffers data =
  let len = Engine.Buf.length data in
  let pos = ref 0 in
  List.map
    (fun (off, blen) ->
      let n = min blen (len - !pos) in
      Segment.write_buf ~layer ep.segment ~off
        (Engine.Buf.sub data ~pos:!pos ~len:n);
      pos := !pos + n;
      (off, n))
    buffers

let push_rx (ep : Endpoint.t) desc =
  let was_empty = Ring.is_empty ep.rx_ring in
  if Ring.push ep.rx_ring desc then begin
    ep.rx_delivered <- ep.rx_delivered + 1;
    (* mint-to-rx-ring latency folds into the message_latency_ns sketch
       on every delivery, independent of span collection *)
    Engine.Span.observe_latency desc.Desc.ctx;
    (* every successful delivery funnels through here, which is what the
       flight recorder's stall watchdog counts as global progress *)
    if Engine.Recorder.armed () then Engine.Recorder.note_delivery ();
    Endpoint.fire_upcalls ep ~was_empty;
    Engine.Sync.Condition.broadcast ep.rx_cond;
    true
  end
  else begin
    ep.drops_rx_full <- ep.drops_rx_full + 1;
    false
  end

let deliver_to ?(copy_layer = "mux") ?ctx (ep : Endpoint.t) ~chan pdu =
  let framed = prefix_len ep pdu in
  let data =
    if framed = 0 then pdu
    else Engine.Buf.sub pdu ~pos:framed ~len:(Engine.Buf.length pdu - framed)
  in
  let len = Engine.Buf.length data in
  let outcome =
    if framed > 0 && Engine.Buf.get_uint8 pdu 0 = 1 then begin
      (* Direct-access: deposit straight into the destination data
         structure; the receive queue only carries a notification. *)
      let off = Int32.to_int (Engine.Buf.get_uint32_be pdu 1) in
      match Segment.check_range ep.segment ~off ~len with
      | Error _ -> Dropped_bad_offset
      | Ok () ->
          Segment.write_buf ~layer:copy_layer ep.segment ~off data;
          let desc =
            {
              Desc.src_chan = chan;
              rx_payload = Desc.Buffers [ (off, len) ];
              ctx;
            }
          in
          if push_rx ep desc then begin
            Engine.Span.mark ctx Engine.Span.Demuxed;
            Delivered_direct
          end
          else Dropped_rx_full
    end
    else if len <= Desc.inline_max then begin
      (* the descriptor retains the payload, so snapshot it out of the
         sender's storage *)
      let desc =
        {
          Desc.src_chan = chan;
          rx_payload = Desc.Inline (Engine.Buf.copy ~layer:copy_layer data);
          ctx;
        }
      in
      if push_rx ep desc then begin
        Engine.Span.mark ctx Engine.Span.Demuxed;
        Delivered_inline
      end
      else Dropped_rx_full
    end
    else begin
      match take_free_buffers ep len with
      | None ->
          ep.drops_no_free_buffer <- ep.drops_no_free_buffer + 1;
          Dropped_no_free_buffer
      | Some buffers ->
          let filled = fill_buffers ~layer:copy_layer ep buffers data in
          let desc =
            { Desc.src_chan = chan; rx_payload = Desc.Buffers filled; ctx }
          in
          if push_rx ep desc then begin
            Engine.Span.mark ctx Engine.Span.Demuxed;
            Delivered_buffers filled
          end
          else begin
            (* receive ring full: give the buffers back *)
            List.iter (fun b -> ignore (Ring.push ep.free_ring b)) buffers;
            Dropped_rx_full
          end
    end
  in
  (match outcome with
  | Delivered_inline | Delivered_buffers _ | Delivered_direct -> ()
  | Dropped_rx_full ->
      rx_dropped ?ctx "rx_full";
      Log.debug (fun m ->
          m "endpoint %d: receive queue full, message dropped" ep.ep_id)
  | Dropped_no_free_buffer ->
      rx_dropped ?ctx "no_free_buffer";
      Log.debug (fun m ->
          m "endpoint %d: free queue empty, %d-byte message dropped" ep.ep_id
            len)
  | Dropped_bad_offset ->
      rx_dropped ?ctx "bad_offset";
      Log.debug (fun m ->
          m "endpoint %d: direct-access offset out of range" ep.ep_id));
  outcome

let deliver t ~rx_vci ?ctx pdu =
  match lookup t ~rx_vci with
  | None ->
      t.unknown <- t.unknown + 1;
      Engine.Metrics.Counter.inc t.m_unknown;
      rx_dropped ?ctx "unknown_channel";
      if Engine.Trace.enabled () then
        Engine.Trace.instant Engine.Trace.Mux "mux.unknown_tag" ~tid:t.host
          ~args:[ ("vci", Engine.Trace.Int rx_vci) ];
      None
  | Some (ep, chan) ->
      let outcome = deliver_to ~copy_layer:t.copy_layer ?ctx ep ~chan pdu in
      (match outcome with
      | Delivered_inline | Delivered_buffers _ | Delivered_direct ->
          Engine.Metrics.Counter.inc t.m_deliveries
      | Dropped_rx_full | Dropped_no_free_buffer | Dropped_bad_offset -> ());
      Engine.Metrics.Counter.inc (t.m_outcomes outcome);
      if Engine.Trace.enabled () then begin
        (* the data's length, without a direct-access prefix *)
        let len = Engine.Buf.length pdu - prefix_len ep pdu in
        Engine.Trace.instant Engine.Trace.Mux "mux.deliver" ~tid:t.host
          ~args:
            [
              ("vci", Engine.Trace.Int rx_vci);
              ("len", Engine.Trace.Int len);
              ("outcome", Engine.Trace.Str (outcome_label outcome));
            ]
      end;
      Some (ep, chan, outcome)

let unknown_tag_drops t = t.unknown
