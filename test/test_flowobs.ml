(* Flow observability (DESIGN.md §17): Space-Saving sketch error bounds,
   exact per-hop flow tables, hostile-label escaping in the metric dumps,
   path-record byte-identity between the train fast path and the per-cell
   reference, near-miss queue-peak gauges, and congestion-atlas HTML
   self-containment. *)

open Engine

let clos2 = Atm.Network.Clos { pods = 2; spine = 2; hosts_per_pod = 2 }
let zero_payload = Buf.alloc Atm.Cell.payload_size

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Space-Saving top-K ----------------------------------------------- *)

(* A skewed deterministic stream: the sketch must keep every key whose
   true count exceeds total/k, and every estimate must bracket the truth
   as [est - err <= true <= est]. *)
let topk_bounds () =
  let k = 4 in
  let t = Atm.Flowstat.Topk.create ~k in
  let keys = 10 in
  let true_counts = Array.make keys 0 in
  let s = ref 1 in
  let next () =
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s
  in
  let total = 2000 in
  for _ = 1 to total do
    let r = next () mod 16 in
    let key = if r < 8 then 0 else if r < 12 then 1 else 2 + (r mod (keys - 2)) in
    true_counts.(key) <- true_counts.(key) + 1;
    Atm.Flowstat.Topk.offer t key 1
  done;
  let entries = Atm.Flowstat.Topk.entries t in
  Alcotest.(check int) "at capacity" k (List.length entries);
  List.iter
    (fun (key, est, err) ->
      let truth = true_counts.(key) in
      Alcotest.(check bool)
        (Printf.sprintf "key %d: est %d >= true %d" key est truth)
        true (est >= truth);
      Alcotest.(check bool)
        (Printf.sprintf "key %d: est %d - err %d <= true %d" key est err truth)
        true (est - err <= truth))
    entries;
  (* the guaranteed-present heavies: true count > total/k *)
  Array.iteri
    (fun key truth ->
      if truth > total / k then
        Alcotest.(check bool)
          (Printf.sprintf "heavy key %d present" key)
          true
          (List.exists (fun (key', _, _) -> key' = key) entries))
    true_counts;
  (* sorted by estimate descending *)
  let ests = List.map (fun (_, est, _) -> est) entries in
  Alcotest.(check (list int))
    "descending" (List.sort (fun a b -> compare b a) ests) ests

(* Negative weights (train-truncation undo) decrement present keys and
   are dropped on absent ones — they never install ghost entries. *)
let topk_negative () =
  let t = Atm.Flowstat.Topk.create ~k:2 in
  Atm.Flowstat.Topk.offer t "x" 10;
  Atm.Flowstat.Topk.offer t "x" (-4);
  Atm.Flowstat.Topk.offer t "ghost" (-5);
  match Atm.Flowstat.Topk.entries t with
  | [ ("x", 6, 0) ] -> ()
  | entries ->
      Alcotest.failf "expected [x,6,0], got %d entries (head est %s)"
        (List.length entries)
        (match entries with
        | (key, est, _) :: _ -> Printf.sprintf "%s=%d" key est
        | [] -> "-")

(* --- exact per-hop flow tables ---------------------------------------- *)

let flowstat_exact () =
  Atm.Flowstat.configure ~exact_flows:2 ~k:4 ();
  Fun.protect ~finally:Atm.Flowstat.disable @@ fun () ->
  let fs = Atm.Flowstat.create () in
  let f1 = Atm.Flowstat.register fs ~src:0 ~dst:3 ~vcis:[| 5; 9; 7 |] in
  let f2 = Atm.Flowstat.register fs ~src:1 ~dst:2 ~vcis:[| 6 |] in
  let f3 = Atm.Flowstat.register fs ~src:2 ~dst:1 ~vcis:[| 8 |] in
  Alcotest.(check string) "label carries the VCI chain" "0:3:5,9,7"
    (Atm.Flowstat.flow_label f1);
  Atm.Flowstat.count fs f1 ~hop:0 ~cells:10;
  Atm.Flowstat.count fs f1 ~hop:1 ~cells:9;
  Atm.Flowstat.drop fs f1 ~hop:1;
  Atm.Flowstat.note_retx fs ~src:0 ~vci:5;
  Atm.Flowstat.note_retx fs ~src:9 ~vci:99 (* unregistered: no-op *);
  Atm.Flowstat.count fs f2 ~hop:0 ~cells:2;
  Atm.Flowstat.count fs f3 ~hop:0 ~cells:50;
  Alcotest.(check int) "only the first two flows are exact" 2
    (Atm.Flowstat.exact_flows fs);
  let sz = Atm.Cell.payload_size in
  (match Atm.Flowstat.flow_hops f1 with
  | None -> Alcotest.fail "f1 should have an exact table"
  | Some hops ->
      Alcotest.(check int) "3 stages" 3 (Array.length hops);
      Alcotest.(check bool) "per-hop (cells, bytes, drops, retx)" true
        (hops = [| (10, 10 * sz, 0, 1); (9, 9 * sz, 1, 0); (0, 0, 0, 0) |]));
  Alcotest.(check bool) "f3 is sketched only" true
    (Atm.Flowstat.flow_hops f3 = None);
  (* the sketch saw ingress bytes from all three, exact or not *)
  (match Atm.Flowstat.top fs with
  | (lead, est, _) :: _ ->
      Alcotest.(check int) "f3 leads by ingress bytes" 2
        (Atm.Flowstat.flow_src lead);
      Alcotest.(check int) "estimate" (50 * sz) est
  | [] -> Alcotest.fail "empty top-K");
  match Atm.Flowstat.find fs ~src:0 ~vci:5 with
  | Some f -> Alcotest.(check int) "find returns f1" 3 (Atm.Flowstat.flow_dst f)
  | None -> Alcotest.fail "find missed a registered flow"

(* --- hostile label values in the metric dumps -------------------------- *)

(* Flow labels carry "src:dst:vci0,vci1" strings; colons and commas are
   legal inside quoted Prometheus label values and JSON strings, but
   quotes, backslashes and control characters must be escaped. *)
let metric_escaping () =
  Metrics.reset ();
  let c =
    Metrics.counter ~help:"escaping probe" "flowobs_escape_probe_total"
      [ ("flow", "0:3:5,9,7"); ("evil", "a\"b\\c\nd\te") ]
  in
  Metrics.Counter.inc c;
  let prom = Metrics.to_prometheus_string () in
  Alcotest.(check bool) "prometheus keeps the flow label verbatim" true
    (contains prom "flow=\"0:3:5,9,7\"");
  Alcotest.(check bool) "prometheus escapes quote/backslash/newline" true
    (contains prom "evil=\"a\\\"b\\\\c\\nd\te\"");
  let json = Metrics.to_json_string () in
  Alcotest.(check bool) "json keeps the flow label verbatim" true
    (contains json "0:3:5,9,7");
  Alcotest.(check bool) "json escapes the hostile label" true
    (contains json "a\\\"b\\\\c\\nd\\te");
  Alcotest.(check bool) "json has no raw control characters" true
    (String.for_all (fun ch -> ch = '\n' || ch >= ' ') json);
  Metrics.reset ()

(* --- path records: train fast path == per-cell reference --------------- *)

(* Cross-pod traffic on a 2x2 Clos through the full NI stack, mixing both
   transmit paths by message size ({!Mixed}): the records synthesized from
   committed trains plus the single-cell PDUs' real per-cell stamps must
   equal, record for record, the all-per-cell reference run. *)
let path_traffic forced =
  Metrics.reset ();
  Pathrec.start ();
  Pathrec.clear ();
  Fun.protect ~finally:(fun () ->
      Pathrec.stop ();
      Pathrec.clear ())
  @@ fun () ->
  let fired = Mixed.traffic ~topology:clos2 ~pair:(0, 3) ~forced () in
  Metrics.flush ();
  (Pathrec.records (), fired)

let path_identity () =
  let train, train_fired = path_traffic false in
  let percell, percell_fired = path_traffic true in
  Alcotest.(check bool)
    (Printf.sprintf "records were captured (%d)" (List.length train))
    true
    (List.length train > 0);
  Alcotest.(check bool)
    (Printf.sprintf "the train run fired fewer events (%d vs %d)" train_fired
       percell_fired)
    true
    (train_fired < percell_fired);
  Alcotest.(check bool)
    "every hop chain crosses 3 stages with positive latencies" true
    (List.for_all
       (fun (r : Pathrec.record) ->
         Array.length r.r_hops = 3
         && Array.for_all (fun (h : Pathrec.hop) -> h.h_latency_ns > 0) r.r_hops
         && r.r_injected < r.r_delivered)
       train);
  Alcotest.(check bool) "train records = per-cell records" true
    (train = percell)

(* Provisional records settle as the run goes, not only when the registry
   is read, so the pool holds just the traffic in flight. *)
let path_settle_eagerly () =
  Metrics.reset ();
  Pathrec.start ();
  Pathrec.clear ();
  Fun.protect ~finally:(fun () ->
      Pathrec.stop ();
      Pathrec.clear ())
  @@ fun () ->
  ignore (Experiments.Common.raw_rtt ~size:1024 () : float);
  let live = Pathrec.count () in
  Metrics.flush ();
  let total = Pathrec.count () in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d records settled before the flush" live total)
    true
    (total > 0 && live * 100 >= total * 95)

(* Under link faults every record still describes its own PDU: the
   journey rides the EOP cell, so a cell lost or held back inside a link
   cannot shift its stamps onto another PDU's record. Each record must
   match a span — same sender, injection and EOP delivery instants.
   Duplication is left out: a span's [Rx_cell] mark is latest-wins, so a
   duplicated EOP cell makes the span, not the record, move. *)
let path_faults_match_spans () =
  let run what spec =
    Metrics.reset ();
    Span.start ();
    Span.clear ();
    Pathrec.start ();
    Pathrec.clear ();
    Fault.configure (Some spec);
    Fun.protect ~finally:(fun () ->
        Fault.configure None;
        Span.stop ();
        Span.clear ();
        Pathrec.stop ();
        Pathrec.clear ())
    @@ fun () ->
    ignore (Experiments.Common.raw_bandwidth ~count:300 ~size:40 () : float);
    Metrics.flush ();
    let marks = Hashtbl.create 512 in
    List.iter
      (fun (sp : Span.span) ->
        match
          (Span.mark_time sp Span.Injected, Span.mark_time sp Span.Rx_cell)
        with
        | Some inj, Some rx -> Hashtbl.replace marks (sp.host, inj, rx) ()
        | _ -> ())
      (Span.spans ());
    let recs = Pathrec.records () in
    let bad =
      List.filter
        (fun (r : Pathrec.record) ->
          not (Hashtbl.mem marks (r.r_src, r.r_injected, r.r_delivered)))
        recs
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: records were captured (%d)" what (List.length recs))
      true
      (List.length recs > 0);
    Alcotest.(check int)
      (Printf.sprintf "%s: records disagreeing with their span" what)
      0 (List.length bad)
  in
  let spec sites = { Fault.none with seed = 1234; sites } in
  run "2% loss on uplinks" { (spec [ Link_up ]) with loss = 0.02 };
  run "2% loss on downlinks" { (spec [ Link_down ]) with loss = 0.02 };
  run "reordering on downlinks"
    { (spec [ Link_down ]) with reorder = 0.05; reorder_span = 4 }

(* Sum of every sample of a counter family in the Prometheus dump. *)
let prom_sum name =
  String.split_on_char '\n' (Metrics.to_prometheus_string ())
  |> List.fold_left
       (fun acc line ->
         let n = String.length name in
         if
           String.length line > n
           && String.sub line 0 n = name
           && (line.[n] = '{' || line.[n] = ' ')
         then
           let sp = String.rindex line ' ' in
           let v = String.sub line (sp + 1) (String.length line - sp - 1) in
           acc + int_of_float (float_of_string v)
         else acc)
       0

(* A record is sealed for every PDU whose EOP cell reached its host —
   before AAL5 checks it. Under link loss a PDU that lost a middle cell
   (or whose EOP merged it into the next PDU) still gets a record and is
   then discarded by AAL5, so the records are exactly the PDUs the NIs
   handed to the mux (delivered or dropped at a full ring) plus those
   AAL5 discarded. *)
let path_records_count_eop_arrivals () =
  Metrics.reset ();
  Pathrec.start ();
  Pathrec.clear ();
  Fault.configure
    (Some
       {
         Fault.none with
         seed = 1234;
         sites = [ Link_up; Link_down ];
         loss = 0.005;
       });
  Fun.protect ~finally:(fun () ->
      Fault.configure None;
      Pathrec.stop ();
      Pathrec.clear ())
  @@ fun () ->
  ignore (Experiments.Common.raw_bandwidth ~count:300 ~size:1000 () : float);
  Metrics.flush ();
  let delivered = prom_sum "unet_mux_deliveries_total"
  and rx_dropped = prom_sum "unet_rx_dropped_total"
  and discarded = prom_sum "aal5_pdus_discarded_total" in
  Alcotest.(check bool)
    (Printf.sprintf "AAL5 discarded some PDUs (%d)" discarded)
    true (discarded > 0);
  Alcotest.(check int)
    (Printf.sprintf "records = %d delivered + %d ring-dropped + %d discarded"
       delivered rx_dropped discarded)
    (delivered + rx_dropped + discarded)
    (Pathrec.count ())

(* --- near-miss queue peaks --------------------------------------------- *)

(* Three senders share one egress: the backlog peaks well below capacity,
   so nothing drops — invisible to the drop counters, visible in
   atm_switch_queue_peak. *)
(* Past capacity the ring drops its oldest records one at a time: the
   count keeps every settled record, and the listing loses exactly the
   oldest. *)
let path_ring_overflow () =
  Pathrec.start ();
  Pathrec.clear ();
  Fun.protect
    ~finally:(fun () ->
      Pathrec.stop ();
      Pathrec.clear ())
  @@ fun () ->
  let n = Pathrec.capacity + 3 in
  let seq = ref 0 in
  for i = 0 to n - 1 do
    let j = Pathrec.inject ~src:0 ~dst:1 ~vci:32 ~now:i in
    Pathrec.number j ~seq;
    Pathrec.deliver j ~now:i
  done;
  Pathrec.fold ~now:n;
  Alcotest.(check int) "every settled record counted" n (Pathrec.count ());
  Alcotest.(check int) "three dropped" 3 (Pathrec.dropped ());
  let recs = Pathrec.records () in
  Alcotest.(check int)
    "the ring holds capacity records" Pathrec.capacity (List.length recs);
  Alcotest.(check bool) "the three oldest are gone" true
    (List.for_all (fun (r : Pathrec.record) -> r.r_seq >= 3) recs);
  Alcotest.(check bool) "oldest first" true
    (match recs with r :: _ -> r.r_seq = 3 | [] -> false)

let queue_peak_near_miss () =
  Metrics.reset ();
  let sim = Sim.create () in
  let config =
    { Atm.Network.default_config with switch_queue_capacity = 16 }
  in
  let net =
    Atm.Network.create_topo sim ~topology:(Atm.Network.Single 4) config
  in
  let conns =
    List.map (fun a -> (a, Atm.Network.connect net ~a ~b:3)) [ 0; 1; 2 ]
  in
  List.iter
    (fun h -> Atm.Network.attach_rx net ~host:h (fun _ -> ()))
    [ 0; 1; 2; 3 ];
  let slot = Atm.Link.cell_time (Atm.Network.uplink net ~host:0) in
  List.iter
    (fun (a, conn) ->
      for j = 0 to 5 do
        Sim.schedule_drop_at ~label:"flowobs.tx" sim
          (1 + (j * slot))
          (fun () ->
            ignore
              (Atm.Network.send net ~host:a
                 (Atm.Cell.make ~vci:conn.Atm.Network.side_a.tx_vci ~eop:(j = 5)
                    zero_payload)
                : bool))
      done)
    conns;
  Sim.run ~until:(Sim.ms 1) sim;
  let sw = Atm.Network.switch_at net 0 in
  Alcotest.(check int) "no drops" 0 (Atm.Switch.port_drops sw ~port:3);
  let peak = Atm.Switch.queue_peak sw ~port:3 in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.0f is a real near-miss" peak)
    true
    (peak >= 6. && peak < 16.);
  Alcotest.(check bool) "idle ports saw no backlog" true
    (Atm.Switch.queue_peak sw ~port:0 <= 1.)

(* --- congestion atlas self-containment ---------------------------------- *)

let atlas_selfcontained () =
  Metrics.reset ();
  Atm.Flowstat.configure ~exact_flows:1 ~k:4 ();
  Pathrec.start ();
  Pathrec.clear ();
  Fun.protect ~finally:(fun () ->
      Atm.Flowstat.disable ();
      Pathrec.stop ();
      Pathrec.clear ())
  @@ fun () ->
  let sim = Sim.create () in
  let net =
    Atm.Network.create_topo sim ~topology:clos2 Atm.Network.default_config
  in
  let c03 = Atm.Network.connect net ~a:0 ~b:3 in
  let c12 = Atm.Network.connect net ~a:1 ~b:2 in
  List.iter
    (fun h -> Atm.Network.attach_rx net ~host:h (fun _ -> ()))
    [ 0; 1; 2; 3 ];
  let slot = Atm.Link.cell_time (Atm.Network.uplink net ~host:0) in
  List.iter
    (fun (host, conn) ->
      for j = 0 to 7 do
        Sim.schedule_drop_at ~label:"flowobs.tx" sim
          (1 + (j * slot))
          (fun () ->
            ignore
              (Atm.Network.send net ~host
                 (Atm.Cell.make ~vci:conn.Atm.Network.side_a.tx_vci ~eop:(j = 7)
                    zero_payload)
                : bool))
      done)
    [ (0, c03); (1, c12) ];
  Sim.run ~until:(Sim.ms 1) sim;
  let html = Atm.Atlas.section net in
  Alcotest.(check bool) "utilization heatmap rendered" true
    (contains html "Output-link utilization");
  Alcotest.(check bool) "flow table carries the sender-0 flow" true
    (contains html (Printf.sprintf "0:3:%d," c03.Atm.Network.side_a.tx_vci));
  Alcotest.(check bool) "the over-threshold flow reads as sketched" true
    (contains html "sketched");
  Alcotest.(check bool) "hop-latency quantiles rendered" true
    (contains html "Per-stage hop latency");
  (* self-contained: inline styles only, no scripts, no external refs *)
  List.iter
    (fun banned ->
      Alcotest.(check bool)
        (Printf.sprintf "no %S" banned)
        false (contains html banned))
    [ "http://"; "https://"; "<script"; "src="; "<link"; "@import" ]

let () =
  Alcotest.run "flowobs"
    [
      ( "topk",
        [
          Alcotest.test_case "error bounds vs exact counts" `Quick topk_bounds;
          Alcotest.test_case "negative weights" `Quick topk_negative;
        ] );
      ( "flowstat",
        [
          Alcotest.test_case "exact per-hop tables" `Quick flowstat_exact;
          Alcotest.test_case "metric dump escaping" `Quick metric_escaping;
        ] );
      ( "pathrec",
        [
          Alcotest.test_case "train = per-cell, mixed sizes" `Quick
            path_identity;
          Alcotest.test_case "bounded ring drops the oldest" `Quick
            path_ring_overflow;
          Alcotest.test_case "records settle during the run" `Quick
            path_settle_eagerly;
          Alcotest.test_case "records match spans under link faults" `Quick
            path_faults_match_spans;
          Alcotest.test_case "one record per EOP arrival under link loss"
            `Quick path_records_count_eop_arrivals;
        ] );
      ( "switch",
        [
          Alcotest.test_case "near-miss queue peak" `Quick queue_peak_near_miss;
        ] );
      ( "atlas",
        [
          Alcotest.test_case "self-contained HTML" `Quick atlas_selfcontained;
        ] );
    ]
