(* Differential properties of the cell-train fast path (DESIGN.md §14):
   with flags off the fast path must be invisible — every metric the
   simulator exposes is byte-identical whether PDUs ride analytic trains
   or the per-cell reference path. Only the engine's own event-accounting
   counters may differ (fewer events is the point). *)

open Engine

let check_identical name f =
  let (train_dump, _), (percell_dump, _) = Differential.both_modes f in
  Alcotest.(check string) (name ^ ": metrics train = per-cell") percell_dump
    train_dump

(* --- flags-off equivalence on the paper's workload shapes ------------- *)

let fig4_style () =
  check_identical "fig4max raw bandwidth" (fun () ->
      ignore (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float))

let fig3_style () =
  check_identical "fig3 raw round-trip" (fun () ->
      ignore (Experiments.Common.raw_rtt ~iters:20 ~size:1024 () : float))

let store_style () =
  check_identical "uam store bandwidth" (fun () ->
      ignore
        (Experiments.Common.uam_store_bandwidth ~count:20 ~size:4096 ()
          : float))

(* The fast path must actually engage on the PDU-heavy shape, not be
   vacuously equivalent because nothing ever trained. *)
let fast_path_engages () =
  let (_, train_fired), (_, percell_fired) =
    Differential.both_modes (fun () ->
        ignore (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float))
  in
  Alcotest.(check bool)
    (Printf.sprintf "3x fewer events (train %d vs per-cell %d)" train_fired
       percell_fired)
    true
    (train_fired * 3 <= percell_fired)

(* --- property: equivalence holds across the size sweep ---------------- *)

let prop_sizes =
  QCheck.Test.make ~count:6 ~name:"train = per-cell across PDU sizes"
    QCheck.(map (fun n -> 40 + (n mod 5017)) small_nat)
    (fun size ->
      let (train_dump, _), (percell_dump, _) =
        Differential.both_modes (fun () ->
            ignore
              (Experiments.Common.raw_bandwidth ~count:10 ~size () : float))
      in
      train_dump = percell_dump)

(* --- lazy expansion under a mid-topology fault ------------------------ *)

(* One lossy uplink forces that host onto the per-cell path; other hosts
   keep training. Build the fig4 flow twice across a 4-host cluster: the
   0 -> 1 flow is clean, the 2 -> 3 flow crosses the faulty uplink. *)
let faulty_pair_run () =
  let c = Cluster.create ~hosts:4 () in
  let spec = { Fault.none with loss = 0.02; sites = [] } in
  Atm.Link.set_fault
    (Atm.Network.uplink c.Cluster.net ~host:2)
    (Fault.create ~site:"test.up.2" spec);
  let send_flow src dst count =
    let n_src = Cluster.node c src and n_dst = Cluster.node c dst in
    let ep_s, a_s = Cluster.simple_endpoint ~free_buffers:4 n_src in
    let ep_d, a_d =
      Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 n_dst
    in
    let ch, _ = Unet.connect_pair (n_src.unet, ep_s) (n_dst.unet, ep_d) in
    let payload = Experiments.Common.payload_of_size a_s 5056 in
    ignore
      (Proc.spawn ~name:"sink" c.sim (fun () ->
           (* the lossy flow drops PDUs: drain whatever arrives *)
           while true do
             let d = Unet.recv n_dst.unet ep_d in
             Unet.release n_dst.unet ep_d a_d d
           done));
    ignore
      (Proc.spawn ~name:"source" c.sim (fun () ->
           let sent = ref 0 in
           while !sent < count do
             match Unet.send n_src.unet ep_s (Unet.Desc.tx ~chan:ch payload) with
             | Ok () -> incr sent
             | Error Unet.Queue_full -> Proc.sleep c.sim ~time:(Sim.us 5)
             | Error e -> Fmt.failwith "source: %a" Unet.pp_error e
           done))
  in
  send_flow 0 1 30;
  send_flow 2 3 30;
  Sim.run ~until:(Sim.ms 50) c.sim

let fault_expansion () =
  let (train_dump, train_fired), (percell_dump, percell_fired) =
    Differential.both_modes faulty_pair_run
  in
  (* expansion is exact: same deliveries, same drops, same everything *)
  Alcotest.(check string) "faulty run: metrics train = per-cell" percell_dump
    train_dump;
  (* the injector really fired on the faulty uplink... *)
  Metrics.reset ();
  Trainmode.force_per_cell false;
  faulty_pair_run ();
  let dropped =
    match
      Metrics.counter_value "fault_injected_total"
        [ ("kind", "drop"); ("site", "test.up.2") ]
    with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "fault injected drops (%d)" dropped)
    true (dropped > 0);
  (* ...while the clean 0 -> 1 flow kept training: expansion stayed local
     to the affected link. The lossy flow runs per-cell in both modes, so
     it contributes the same events to each side; the clean flow training
     must collapse the train total well below the per-cell total. *)
  Alcotest.(check bool)
    (Printf.sprintf "clean flow still trains (train %d vs per-cell %d)"
       train_fired percell_fired)
    true
    (train_fired * 3 <= percell_fired * 2)

(* --- run-length independence --------------------------------------------- *)

(* A raw stream of [count] 1 KB PDUs from host 0 to host 1 that never reads
   the registry while it runs. A watcher records the most unretired plan
   records the switch or any link held, sampled every 2 us of simulated
   time (shorter than one cell time, so no commit goes unobserved for
   long). *)
let stream_run ~count ~peak () =
  let c = Cluster.create ~hosts:2 () in
  let net = c.Cluster.net in
  let n_src = Cluster.node c 0 and n_dst = Cluster.node c 1 in
  let ep_s, a_s = Cluster.simple_endpoint ~free_buffers:4 n_src in
  let ep_d, a_d = Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 n_dst in
  let ch, _ = Unet.connect_pair (n_src.unet, ep_s) (n_dst.unet, ep_d) in
  let payload = Experiments.Common.payload_of_size a_s 1024 in
  let received = ref 0 in
  ignore
    (Proc.spawn ~name:"sink" c.sim (fun () ->
         while true do
           let d = Unet.recv n_dst.unet ep_d in
           Unet.release n_dst.unet ep_d a_d d;
           incr received
         done));
  ignore
    (Proc.spawn ~name:"source" c.sim (fun () ->
         let sent = ref 0 in
         while !sent < count do
           match Unet.send n_src.unet ep_s (Unet.Desc.tx ~chan:ch payload) with
           | Ok () -> incr sent
           | Error Unet.Queue_full -> Proc.sleep c.sim ~time:(Sim.us 5)
           | Error e -> Fmt.failwith "source: %a" Unet.pp_error e
         done));
  let links =
    [ Atm.Network.uplink net ~host:0; Atm.Network.downlink net ~host:1 ]
  in
  ignore
    (Proc.spawn ~name:"watcher" c.sim (fun () ->
         while !received < count do
           let held =
             List.fold_left
               (fun acc l -> max acc (Atm.Link.pending_hops l))
               (Atm.Switch.pending_records (Atm.Network.switch net))
               links
           in
           peak := max !peak held;
           Proc.sleep c.sim ~time:(Sim.us 2)
         done));
  Sim.run ~until:(Sim.sec 2) c.sim;
  Alcotest.(check int) "every PDU delivered" count !received

let run_length_independent () =
  let count = 2000 in
  (* the per-cell run plans nothing, so the peak is the train run's *)
  let peak = ref 0 in
  let (train_dump, train_fired), (percell_dump, percell_fired) =
    Differential.both_modes (stream_run ~count ~peak)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the stream trained (train %d vs per-cell %d events)"
       train_fired percell_fired)
    true
    (train_fired * 3 <= percell_fired);
  Alcotest.(check bool)
    (Printf.sprintf "at most 8 unretired plan records held (peak %d over %d \
                     PDUs)"
       !peak count)
    true (!peak <= 8);
  Alcotest.(check string) "flushed counters: train = per-cell" percell_dump
    train_dump

(* --- train-granular observers: planned drops and truncation ----------- *)

(* Span, flow and path-record output of [f] with all three fabric
   observers on (plus tracing, whose slices only exist on the train
   path). Flow output is the [atm_flow_*] lines of the metrics dump. *)
let observed forced f =
  Metrics.reset ();
  Trainmode.force_per_cell forced;
  Atm.Flowstat.configure ();
  Pathrec.start ();
  Pathrec.clear ();
  Span.start ();
  Trace.start ();
  Fun.protect ~finally:(fun () ->
      Trainmode.force_per_cell false;
      Atm.Flowstat.disable ();
      Pathrec.stop ();
      Pathrec.clear ();
      Span.stop ();
      Span.clear ();
      Trace.stop ();
      Trace.clear ())
  @@ fun () ->
  let extra = f () in
  Metrics.flush ();
  let dump = Metrics.to_prometheus_string () in
  let flows =
    String.split_on_char '\n' dump
    |> List.filter (fun l ->
           String.length l > 9 && String.sub l 0 9 = "atm_flow_")
  in
  let slices =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.ph with
        | Trace.Complete dur
          when String.length e.name > 6 && String.sub e.name 0 6 = "train." ->
            Some (e.name, e.tid, e.ts, dur)
        | _ -> None)
      (Trace.events ())
  in
  (Span.to_json (), Pathrec.records (), flows, slices, dump, extra)

let counter dump name =
  List.find_map
    (fun l ->
      let n = String.length name in
      if String.length l > n && String.sub l 0 n = name then
        int_of_string_opt (String.trim (String.sub l n (String.length l - n)))
      else None)
    (String.split_on_char '\n' dump)

let uplink0_drops dump =
  Option.value ~default:0
    (counter dump "atm_link_cells_dropped_total{dir=\"up\",host=\"0\"}")

(* A saturating i960 sender overruns its uplink TX FIFO, so the train
   plans refusals. Each refused per-cell send charges a hop-0 flow drop
   and marks the message's span Dropped; the train path must report the
   same. *)
let planned_drops () =
  let run forced =
    observed forced (fun () ->
        let fired0 = Sim.events_fired () in
        ignore
          (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float);
        Sim.events_fired () - fired0)
  in
  let spans, paths, flows, _, dump, train_fired = run false in
  let spans', paths', flows', _, _, percell_fired = run true in
  let drops = uplink0_drops dump in
  Alcotest.(check bool)
    (Printf.sprintf "the uplink refused cells (%d)" drops)
    true (drops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "the stream trained (train %d vs per-cell %d events)"
       train_fired percell_fired)
    true
    (train_fired * 3 <= percell_fired);
  Alcotest.(check (list string)) "flows: train = per-cell" flows' flows;
  Alcotest.(check string) "spans: train = per-cell" spans' spans;
  Alcotest.(check bool) "path records: train = per-cell" true (paths = paths')

(* Host 0 sends an [n]-cell PDU to host 3 across a 2x2 Clos (leaf, spine,
   leaf), one attempt every [gap]; from [t_int] it also bursts a PDU to
   host 1 on the same uplink, one cell per microsecond, into a 2-cell TX
   FIFO — so the cut cells that follow are mostly refused and never
   re-stamp their downstream milestones. With [~train] the first PDU is
   committed through [Network.commit_train]; the burst's first per-cell
   send trips the uplink's interfere hook, which cuts the train back to
   the cells already attempted and re-sends the rest per cell at their
   original instants. Without, every cell is a per-cell send — the
   reference. *)
let n_cells = 8
let gap = 4_000
let t_start = 1_000
let attempt i = t_start + ((i + 1) * gap)
let burst = 24

(* The 2x2 Clos both truncation scenarios run on: 2-cell host TX FIFOs,
   receivers that mark [Rx_cell] as an NI does, and an [n]-cell PDU from
   host 0 to host 3. *)
let clos_pdu n =
  let sim = Sim.create () in
  let net =
    Atm.Network.create_topo sim
      ~topology:(Atm.Network.Clos { pods = 2; spine = 2; hosts_per_pod = 2 })
      { Atm.Network.default_config with host_tx_fifo = 2 }
  in
  let c03 = Atm.Network.connect net ~a:0 ~b:3 in
  for h = 0 to 3 do
    Atm.Network.attach_rx net ~host:h (fun cell ->
        if cell.Atm.Cell.eop then Span.mark cell.Atm.Cell.tag.ctx Span.Rx_cell)
  done;
  let tag =
    {
      Atm.Cell.ctx = Some (Span.root ~host:0 "pdu");
      journal = None;
      track = Atm.Cell.Unresolved;
    }
  in
  let cells =
    Array.init n (fun i ->
        Atm.Cell.make ~tag ~vci:c03.Atm.Network.side_a.tx_vci
          ~eop:(i = n - 1)
          (Buf.alloc Atm.Cell.payload_size))
  in
  (sim, net, cells)

let truncation_run ~train ~t_int () =
  let sim, net, cells = clos_pdu n_cells in
  let c01 = Atm.Network.connect net ~a:0 ~b:1 in
  let send cell = ignore (Atm.Network.send net ~host:0 cell : bool) in
  let per_cell_from k =
    for i = k to n_cells - 1 do
      Sim.schedule_drop_at sim (attempt i) (fun () -> send cells.(i))
    done
  in
  let kept = ref n_cells in
  Sim.schedule_drop_at sim t_start (fun () ->
      if not train then per_cell_from 0
      else
        let tr = Atm.Cell.Train.of_cells cells in
        let uplink = Atm.Network.uplink net ~host:0 in
        let on_interfere () =
          let now = Sim.now sim in
          let keep = ref 0 in
          while !keep < n_cells && attempt !keep < now do
            incr keep
          done;
          kept := !keep;
          Atm.Link.clear_interfere uplink;
          Atm.Cell.Train.truncate tr ~keep:!keep ~now;
          per_cell_from !keep
        in
        match
          Atm.Network.commit_train net ~host:0 ~train:tr
            ~first_attempt:(attempt 0) ~gap ~on_interfere
        with
        | Some _ -> ()
        | None -> Alcotest.fail "train commit refused");
  let tag =
    {
      Atm.Cell.ctx = Some (Span.root ~host:0 "interferer");
      journal = None;
      track = Atm.Cell.Unresolved;
    }
  in
  for j = 0 to burst - 1 do
    Sim.schedule_drop_at sim (t_int + (j * 1_000)) (fun () ->
        send
          (Atm.Cell.make ~tag ~vci:c01.Atm.Network.side_a.tx_vci
             ~eop:(j = burst - 1)
             (Buf.alloc Atm.Cell.payload_size)))
  done;
  Sim.run sim;
  !kept

(* Truncation while all four train-granular observers are attached: the
   kept prefix's synthesized output plus the cut suffix's real per-cell
   output must equal the all-per-cell run, and the trace slices must
   shrink to the kept prefix (cells are spaced [gap] apart at every
   stage, so each slice loses [(n - keep) * gap]) or vanish at keep = 0. *)
let truncation_case ~t_int ~want_keep () =
  let _, _, _, full, _, _ =
    observed false (truncation_run ~train:true ~t_int:(attempt n_cells * 4))
  in
  let spans, paths, flows, slices, dump, keep =
    observed false (truncation_run ~train:true ~t_int)
  in
  let spans', paths', flows', _, _, _ =
    observed true (truncation_run ~train:false ~t_int)
  in
  Alcotest.(check int) "kept prefix" want_keep keep;
  Alcotest.(check int) "untruncated train: uplink + 3 stage pairs" 7
    (List.length full);
  Alcotest.(check (list string)) "flows: truncated train = per-cell" flows'
    flows;
  Alcotest.(check string) "spans: truncated train = per-cell" spans' spans;
  Alcotest.(check bool) "path records: truncated train = per-cell" true
    (paths = paths');
  Alcotest.(check bool) "path records were stamped" true (paths <> []);
  Alcotest.(check bool)
    (Printf.sprintf "the uplink refused cells (%d)" (uplink0_drops dump))
    true
    (uplink0_drops dump > 0);
  let expect =
    if keep = 0 then []
    else
      List.map
        (fun (name, tid, ts, dur) ->
          (name, tid, ts, dur - ((n_cells - keep) * gap)))
        full
  in
  let show (name, tid, ts, dur) =
    Printf.sprintf "%s@%d %d+%d" name tid ts dur
  in
  Alcotest.(check (list string)) "train slices cover the kept prefix"
    (List.map show expect) (List.map show slices)

(* Host 0 offers an [n]-cell PDU to host 3 faster than the uplink drains:
   one attempt per [fast_gap] into a 2-cell TX FIFO, a refused attempt
   retrying one cell time later — the i960's chain. At [t_cut] the sender
   slows to one offer every 10 us, which the FIFO never refuses. With
   [~train] the fast phase is a committed train, cut at [t_cut] directly,
   so the truncation retracts the planned refusals from then on while the
   earlier ones stand. *)
let fast_gap = 2_000
let n_fast = 16
let t_cut = 33_500

let refusal_run ~train () =
  let sim, net, cells = clos_pdu n_fast in
  let uplink = Atm.Network.uplink net ~host:0 in
  let send i = Atm.Network.send net ~host:0 cells.(i) in
  let slow_from k =
    for i = k to n_fast - 1 do
      Sim.schedule_drop_at sim
        (t_cut + ((i - k + 1) * 10_000))
        (fun () -> ignore (send i : bool))
    done
  in
  let rec chain i at =
    Sim.schedule_drop_at sim at (fun () ->
        if at >= t_cut then slow_from i
        else if send i then begin
          if i + 1 < n_fast then chain (i + 1) (at + fast_gap)
        end
        else chain i (at + Atm.Link.cell_time uplink))
  in
  Sim.schedule_drop_at sim t_start (fun () ->
      if not train then chain 0 (t_start + fast_gap)
      else
        let tr = Atm.Cell.Train.of_cells cells in
        match
          Atm.Network.commit_train net ~host:0 ~train:tr
            ~first_attempt:(t_start + fast_gap) ~gap:fast_gap
            ~on_interfere:(fun () -> Alcotest.fail "unexpected interference")
        with
        | None -> Alcotest.fail "train commit refused"
        | Some accepts ->
            Sim.schedule_drop_at sim t_cut (fun () ->
                let keep = ref 0 in
                while !keep < n_fast && accepts.(!keep) < t_cut do
                  incr keep
                done;
                Atm.Link.clear_interfere uplink;
                Atm.Cell.Train.truncate tr ~keep:!keep ~now:t_cut;
                slow_from !keep));
  Sim.run sim

let refusals_cut () =
  let spans, paths, flows, _, dump, () =
    observed false (refusal_run ~train:true)
  in
  let spans', paths', flows', _, dump', () =
    observed true (refusal_run ~train:false)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the uplink refused cells (%d)" (uplink0_drops dump'))
    true
    (uplink0_drops dump' > 0);
  Alcotest.(check int) "uplink refusals: train = per-cell"
    (uplink0_drops dump') (uplink0_drops dump);
  Alcotest.(check (list string)) "flows: truncated train = per-cell" flows'
    flows;
  Alcotest.(check string) "spans: truncated train = per-cell" spans' spans;
  Alcotest.(check bool) "path records: truncated train = per-cell" true
    (paths = paths')

let () =
  Alcotest.run "train"
    [
      ( "differential",
        [
          Alcotest.test_case "fig4-style bandwidth" `Slow fig4_style;
          Alcotest.test_case "fig3-style rtt" `Slow fig3_style;
          Alcotest.test_case "uam store" `Slow store_style;
          Alcotest.test_case "fast path engages" `Slow fast_path_engages;
          QCheck_alcotest.to_alcotest prop_sizes;
        ] );
      ( "fault-expansion",
        [ Alcotest.test_case "lossy uplink expands locally" `Slow
            fault_expansion ] );
      ( "run-length",
        [ Alcotest.test_case "plan records retire at commit" `Slow
            run_length_independent ] );
      ( "observers",
        [
          Alcotest.test_case "planned uplink drops" `Slow planned_drops;
          Alcotest.test_case "truncated mid-train" `Quick
            (truncation_case ~t_int:(attempt 3 + 1_500) ~want_keep:4);
          Alcotest.test_case "truncated before the first cell" `Quick
            (truncation_case ~t_int:(t_start + 500) ~want_keep:0);
          Alcotest.test_case "refusals cut mid-train" `Quick refusals_cut;
        ] );
    ]
