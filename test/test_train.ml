(* Differential properties of the cell-train fast path (DESIGN.md §14):
   with flags off the fast path must be invisible — every metric the
   simulator exposes is byte-identical whether PDUs ride analytic trains
   or the per-cell reference path. Only the engine's own event-accounting
   counters may differ (fewer events is the point). *)

open Engine

(* sim_events_total{outcome=...} is the one family the fast path is
   allowed (expected) to change. *)
let strip_event_counters dump =
  String.split_on_char '\n' dump
  |> List.filter (fun line ->
         not (String.length line >= 16 && String.sub line 0 16 = "sim_events_total"))
  |> String.concat "\n"

(* Run [f] once per mode from a clean registry and return each mode's
   stripped Prometheus dump plus the events it fired. *)
let both_modes f =
  let run forced =
    Metrics.reset ();
    Trainmode.force_per_cell forced;
    let fired0 = Sim.events_fired () in
    (try f ()
     with e ->
       Trainmode.force_per_cell false;
       raise e);
    Trainmode.force_per_cell false;
    Metrics.flush ();
    (strip_event_counters (Metrics.to_prometheus_string ()),
     Sim.events_fired () - fired0)
  in
  let train = run false in
  let percell = run true in
  (train, percell)

let check_identical name f =
  let (train_dump, _), (percell_dump, _) = both_modes f in
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
    both_modes (fun () ->
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
        both_modes (fun () ->
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
    let ep_d, _ =
      Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 n_dst
    in
    let ch, _ = Unet.connect_pair (n_src.unet, ep_s) (n_dst.unet, ep_d) in
    let payload = Experiments.Common.payload_of_size a_s 5056 in
    ignore
      (Proc.spawn ~name:"sink" c.sim (fun () ->
           (* the lossy flow drops PDUs: drain whatever arrives *)
           while true do
             let d = Unet.recv n_dst.unet ep_d in
             Experiments.Common.return_buffers n_dst ep_d d
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
    both_modes faulty_pair_run
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
  let ep_d, _ = Cluster.simple_endpoint ~free_buffers:56 ~rx_slots:128 n_dst in
  let ch, _ = Unet.connect_pair (n_src.unet, ep_s) (n_dst.unet, ep_d) in
  let payload = Experiments.Common.payload_of_size a_s 1024 in
  let received = ref 0 in
  ignore
    (Proc.spawn ~name:"sink" c.sim (fun () ->
         while true do
           let d = Unet.recv n_dst.unet ep_d in
           Experiments.Common.return_buffers n_dst ep_d d;
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
    both_modes (stream_run ~count ~peak)
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
    ]
