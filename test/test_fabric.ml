(* Multi-stage fabrics (DESIGN.md §16): Clos elaboration, per-hop VCI
   remapping, wire order across stages, the multi-stage train fast path's
   flags-off invisibility, fault-site coverage on non-uniform port counts,
   and the undeliverable / VCI-exhaustion failure modes. *)

open Engine

let clos2 = Atm.Network.Clos { pods = 2; spine = 2; hosts_per_pod = 2 }

(* A payload stamping [seq] in its first byte. *)
let seq_payload seq =
  Buf.of_string (String.init Atm.Cell.payload_size (fun i ->
      if i = 0 then Char.chr (seq land 0xff) else '\x00'))

(* --- elaboration and routing ----------------------------------------- *)

let clos_shape () =
  let sim = Sim.create () in
  let net = Atm.Network.create_topo sim ~topology:clos2 Atm.Network.default_config in
  Alcotest.(check int) "hosts" 4 (Atm.Network.host_count net);
  Alcotest.(check int) "switches" 4 (Atm.Network.switch_count net);
  (* leaves have host + spine ports, spines one port per pod *)
  Alcotest.(check int) "leaf ports" 4
    (Atm.Switch.ports (Atm.Network.switch_at net 0));
  Alcotest.(check int) "spine ports" 2
    (Atm.Switch.ports (Atm.Network.switch_at net 2));
  Alcotest.(check int) "host 3 on leaf 1" 1 (Atm.Network.host_switch net ~host:3)

(* Cross-pod cells arrive relabelled to the receiver-side VCI, having been
   remapped at every stage (uplink VCI -> trunk VCI -> downlink VCI). *)
let clos_delivery () =
  let sim = Sim.create () in
  let net = Atm.Network.create_topo sim ~topology:clos2 Atm.Network.default_config in
  let conn = Atm.Network.connect net ~a:0 ~b:3 in
  let got = ref [] in
  Atm.Network.attach_rx net ~host:3 (fun cell ->
      got := (cell.Atm.Cell.vci, Buf.get_uint8 cell.Atm.Cell.payload 0) :: !got);
  Atm.Network.attach_rx net ~host:0 (fun _ -> ());
  let n = 5 in
  for i = 0 to n - 1 do
    let cell =
      Atm.Cell.make ~vci:conn.Atm.Network.side_a.tx_vci ~eop:(i = n - 1)
        (seq_payload i)
    in
    Alcotest.(check bool) "accepted" true (Atm.Network.send net ~host:0 cell)
  done;
  Sim.run ~until:(Sim.ms 1) sim;
  let got = List.rev !got in
  Alcotest.(check int) "all delivered" n (List.length got);
  List.iteri
    (fun i (vci, seq) ->
      Alcotest.(check int) "relabelled to rx VCI"
        conn.Atm.Network.side_b.rx_vci vci;
      Alcotest.(check int) "in order" i seq)
    got;
  (* the route really crossed a spine: each cell was forwarded by three
     stages (leaf 0, one spine, leaf 1) *)
  let routed =
    List.init 4 (fun i -> Atm.Switch.cells_routed (Atm.Network.switch_at net i))
  in
  Alcotest.(check int) "3 forwards per cell" (3 * n)
    (List.fold_left ( + ) 0 routed);
  Alcotest.(check bool) "exactly one spine used" true
    (List.sort compare [ List.nth routed 2; List.nth routed 3 ] = [ 0; n ])

(* --- wire order across stages (QCheck) -------------------------------- *)

(* No cell of a PDU may overtake a predecessor anywhere in the fabric:
   receivers see sequence numbers strictly in send order, whatever the
   pacing. Random per-cell send gaps exercise queue buildup at each hop. *)
let prop_wire_order =
  QCheck.Test.make ~count:30 ~name:"no cell overtakes a predecessor"
    QCheck.(pair (1 -- 60) (list_of_size Gen.(1 -- 40) (0 -- 3)))
    (fun (cells, gaps) ->
      let sim = Sim.create () in
      let net =
        Atm.Network.create_topo sim ~topology:clos2 Atm.Network.default_config
      in
      let conn = Atm.Network.connect net ~a:0 ~b:3 in
      let got = ref [] in
      Atm.Network.attach_rx net ~host:3 (fun cell ->
          got := Buf.get_uint8 cell.Atm.Cell.payload 0 :: !got);
      let slot = Atm.Link.cell_time (Atm.Network.uplink net ~host:0) in
      let gap i =
        match List.nth_opt gaps (i mod max 1 (List.length gaps)) with
        | Some g -> g * slot
        | None -> 0
      in
      let t = ref 0 in
      for i = 0 to cells - 1 do
        (* at least a cell slot apart so the bounded host FIFO never
           overflows; the random extra gap varies switch-queue depth *)
        t := !t + slot + gap i;
        let vci = conn.Atm.Network.side_a.tx_vci in
        Sim.schedule_drop_at sim !t (fun () ->
            ignore
              (Atm.Network.send net ~host:0
                 (Atm.Cell.make ~vci ~eop:false (seq_payload i))
                : bool))
      done;
      Sim.run ~until:(Sim.ms 10) sim;
      List.rev !got = List.init cells (fun i -> i land 0xff))

(* --- multi-stage train fast path: flags-off invisibility -------------- *)

(* fig3-style round trips between cross-pod hosts: every PDU crosses three
   stages in each direction, and the analytic trains must reproduce the
   per-cell reference byte-for-byte. *)
let clos_differential_rtt () =
  let (train_dump, _), (percell_dump, _) =
    Differential.both_modes (fun () ->
        ignore
          (Experiments.Common.raw_rtt ~iters:20 ~size:1024 ~topology:clos2
             ~pair:(0, 3) ()
            : float))
  in
  Alcotest.(check string) "clos rtt: metrics train = per-cell" percell_dump
    train_dump

let clos_differential_bandwidth () =
  let (train_dump, train_fired), (percell_dump, percell_fired) =
    Differential.both_modes (fun () ->
        ignore
          (Experiments.Common.raw_bandwidth ~count:30 ~size:5056
             ~topology:clos2 ~pair:(0, 3) ()
            : float))
  in
  Alcotest.(check string) "clos bandwidth: metrics train = per-cell"
    percell_dump train_dump;
  (* and the fast path really engaged across the multi-hop route *)
  Alcotest.(check bool)
    (Printf.sprintf "3x fewer events (train %d vs per-cell %d)" train_fired
       percell_fired)
    true
    (train_fired * 3 <= percell_fired)

(* --- fault sites on non-uniform port counts (regression) -------------- *)

(* apply_fault's Switch arm used to iterate hosts, not the switch's own
   port count: on a Clos whose spines have fewer ports than the cluster
   has hosts it raised, and leaf trunk ports got no injector at all. *)
let fault_covers_fabric () =
  Metrics.reset ();
  let sim = Sim.create () in
  let net = Atm.Network.create_topo sim ~topology:clos2 Atm.Network.default_config in
  let spec = { Fault.none with loss = 1.0; sites = [ Fault.Switch ] } in
  Atm.Network.apply_fault net spec;
  let conn = Atm.Network.connect net ~a:0 ~b:3 in
  Atm.Network.attach_rx net ~host:3 (fun _ ->
      Alcotest.fail "cell crossed a loss=1.0 switch site");
  ignore
    (Atm.Network.send net ~host:0
       (Atm.Cell.make ~vci:conn.Atm.Network.side_a.tx_vci ~eop:true
          (seq_payload 0))
      : bool);
  Sim.run ~until:(Sim.ms 1) sim;
  Metrics.flush ();
  (* host 0 -> 3 picks spine (0 + 3) mod 2 = 1, so leaf 0's trunk port
     toward spine 1 is port hosts_per_pod + 1 = 3 — a port index the old
     host-count loop happened to cover only by coincidence, now labelled
     per stage *)
  let dropped =
    match
      Metrics.counter_value "fault_injected_total"
        [ ("kind", "drop"); ("site", "switch.0.port.3") ]
    with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "dropped at the stage-labelled trunk port" 1 dropped

(* single-switch fabrics keep the historical site labels *)
let fault_single_switch_labels () =
  Metrics.reset ();
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:2 Atm.Network.default_config in
  let spec = { Fault.none with loss = 1.0; sites = [ Fault.Switch ] } in
  Atm.Network.apply_fault net spec;
  let conn = Atm.Network.connect net ~a:0 ~b:1 in
  Atm.Network.attach_rx net ~host:1 (fun _ -> ());
  ignore
    (Atm.Network.send net ~host:0
       (Atm.Cell.make ~vci:conn.Atm.Network.side_a.tx_vci ~eop:true
          (seq_payload 0))
      : bool);
  Sim.run ~until:(Sim.ms 1) sim;
  Metrics.flush ();
  let dropped =
    match
      Metrics.counter_value "fault_injected_total"
        [ ("kind", "drop"); ("site", "switch.port.1") ]
    with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "historical switch.port.<p> label" 1 dropped

(* --- undeliverable cells are counted, not silently discarded ---------- *)

let undeliverable_counted () =
  (* fully-wired runs must not even create the family (checked first:
     Metrics.reset keeps registrations, so the lazy creation below would
     leak into this half) *)
  Metrics.reset ();
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:2 Atm.Network.default_config in
  let conn = Atm.Network.connect net ~a:0 ~b:1 in
  Atm.Network.attach_rx net ~host:1 (fun _ -> ());
  ignore
    (Atm.Network.send net ~host:0
       (Atm.Cell.make ~vci:conn.Atm.Network.side_a.tx_vci ~eop:true
          (seq_payload 0))
      : bool);
  Sim.run ~until:(Sim.ms 1) sim;
  Metrics.flush ();
  Alcotest.(check bool) "family absent when every host is wired" true
    (Metrics.counter_value "atm_fabric_undeliverable_total" [ ("host", "1") ]
    = None);
  Metrics.reset ();
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:2 Atm.Network.default_config in
  let conn = Atm.Network.connect net ~a:0 ~b:1 in
  (* host 1 never attaches an NI *)
  for i = 0 to 2 do
    ignore
      (Atm.Network.send net ~host:0
         (Atm.Cell.make ~vci:conn.Atm.Network.side_a.tx_vci ~eop:(i = 2)
            (seq_payload i))
        : bool)
  done;
  Sim.run ~until:(Sim.ms 1) sim;
  Metrics.flush ();
  let n =
    match
      Metrics.counter_value "atm_fabric_undeliverable_total"
        [ ("host", "1") ]
    with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "undeliverable cells counted" 3 n

(* --- VCI allocators refuse past the 16-bit ceiling (regression) ------- *)

let vci_ceiling () =
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:2 Atm.Network.default_config in
  (* 32..65535 leaves 65504 tx VCIs per host; each connect takes one *)
  let raised = ref false in
  (try
     for _ = 1 to 70_000 do
       ignore (Atm.Network.connect net ~a:0 ~b:1 : Atm.Network.conn)
     done
   with Invalid_argument msg ->
     raised := true;
     Alcotest.(check bool) "message names the VCI space" true
       (String.length msg >= 7
       && String.sub msg 0 7 = "Network"));
  Alcotest.(check bool) "allocator raised instead of aliasing" true !raised

(* Same seed, same topology: a second [fabric --quick] in the same process
   reproduces the metrics registry dump byte for byte, and both runs pass
   their checks. Between runs the registry is zeroed and the path records
   the experiment starts are cleared, as a fresh process would find
   them. *)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let determinism_replay () =
  let fabric = Option.get (Experiments.Registry.find "fabric") in
  let run () =
    Metrics.reset ();
    Pathrec.clear ();
    let o = fabric.run ~quick:true in
    List.iter
      (fun (claim, ok) -> Alcotest.(check bool) claim true ok)
      o.Experiments.Registry.o_checks;
    Metrics.flush ();
    Metrics.to_prometheus_string ()
  in
  let first = run () in
  let second = run () in
  Metrics.reset ();
  Pathrec.clear ();
  Alcotest.(check bool) "dump names the routed cells" true
    (contains first "atm_switch_cells_routed_total");
  Alcotest.(check string) "second dump equals the first" first second

let () =
  Alcotest.run "fabric"
    [
      ( "clos",
        [
          Alcotest.test_case "elaboration shape" `Quick clos_shape;
          Alcotest.test_case "cross-pod delivery + VCI remap" `Quick
            clos_delivery;
          QCheck_alcotest.to_alcotest prop_wire_order;
        ] );
      ( "train",
        [
          Alcotest.test_case "clos rtt differential" `Slow
            clos_differential_rtt;
          Alcotest.test_case "clos bandwidth differential" `Slow
            clos_differential_bandwidth;
        ] );
      ( "faults",
        [
          Alcotest.test_case "sites cover non-uniform ports" `Quick
            fault_covers_fabric;
          Alcotest.test_case "single-switch labels unchanged" `Quick
            fault_single_switch_labels;
        ] );
      ( "edges",
        [
          Alcotest.test_case "undeliverable cells counted" `Quick
            undeliverable_counted;
          Alcotest.test_case "VCI ceiling raises" `Quick vci_ceiling;
        ] );
      ( "replay",
        [
          Alcotest.test_case "fabric --quick dump replays" `Quick
            determinism_replay;
        ] );
    ]
