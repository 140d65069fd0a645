(* Tests for the network-interface models: the i960-style NIC engine's
   transmit pump and flow control, the per-NI cost division, the SBA-100's
   host-side path, and the calibration relationships among the three NIs. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let mk_pair ?(nic = Cluster.Sba200_unet) ?nic_config ?net_config () =
  let c = Cluster.create ?net_config ~nic ?nic_config () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let emulated = nic = Cluster.Sba100 in
  let ep0, a0 = Cluster.simple_endpoint ~emulated n0 in
  let ep1, _ = Cluster.simple_endpoint ~emulated ~free_buffers:60 ~rx_slots:256 n1 in
  let ch0, ch1 = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  (c, n0, n1, ep0, ep1, a0, ch0, ch1)

(* --- PDU counting --------------------------------------------------- *)

let test_pdu_counters () =
  let c, n0, n1, ep0, _, _, ch0, _ = mk_pair () in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to 5 do
           ignore
             (Unet.send n0.unet ep0
                (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 8))))
         done));
  Sim.run c.sim;
  checki "sender counted 5 PDUs" 5 (Ni.I960_nic.pdus_sent (Option.get n0.i960));
  checki "receiver counted 5 PDUs" 5
    (Ni.I960_nic.pdus_received (Option.get n1.i960));
  checki "no reassembly errors" 0
    (Ni.I960_nic.reassembly_errors (Option.get n1.i960))

(* --- i960 utilization ----------------------------------------------- *)

let test_i960_busy_accounting () =
  let c, n0, n1, ep0, _, a0, ch0, _ = mk_pair () in
  let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
  ignore
    (Proc.spawn c.sim (fun () ->
         ignore
           (Unet.send n0.unet ep0
              (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 4000) ])))));
  Sim.run c.sim;
  let tx_busy = Sync.Server.busy_time (Ni.I960_nic.server (Option.get n0.i960)) in
  let rx_busy = Sync.Server.busy_time (Ni.I960_nic.server (Option.get n1.i960)) in
  (* 4000 B = 84 cells: tx = fixed 20us + 84 * 1.8us ~ 171us *)
  checkb (Printf.sprintf "tx i960 busy %d ns ~ 171 us" tx_busy) true
    (tx_busy > 160_000 && tx_busy < 185_000);
  (* rx = 84 * 1.8 + multi fixed 20us ~ 171us *)
  checkb (Printf.sprintf "rx i960 busy %d ns ~ 171 us" rx_busy) true
    (rx_busy > 160_000 && rx_busy < 185_000)

(* --- output-FIFO flow control ---------------------------------------- *)

let test_tx_fifo_stall_no_loss () =
  (* a tiny NI output FIFO forces the i960 to stall and retry; no cells may
     be lost even for messages much larger than the FIFO *)
  let net_config =
    { Atm.Network.default_config with host_tx_fifo = 8 }
  in
  let c, n0, n1, ep0, ep1, a0, ch0, _ = mk_pair ~net_config () in
  ignore n1;
  let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
  let data = Bytes.init 4000 (fun i -> Char.chr (i mod 256)) in
  Unet.Segment.write ep0.segment ~off ~src:data ~src_pos:0 ~len:4000;
  let got = ref None in
  ignore
    (Proc.spawn c.sim (fun () ->
         ignore
           (Unet.send n0.unet ep0
              (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 4000) ])))));
  ignore (Proc.spawn c.sim (fun () -> got := Some (Unet.recv n1.unet ep1)));
  Sim.run c.sim;
  match !got with
  | Some { Unet.Desc.rx_payload = Unet.Desc.Buffers bufs; _ } ->
      let out = Bytes.create 4000 in
      let pos = ref 0 in
      List.iter
        (fun (o, l) ->
          Unet.Segment.blit_out ep1.segment ~off:o ~dst:out ~dst_pos:!pos ~len:l;
          pos := !pos + l)
        bufs;
      check Alcotest.bytes "84-cell message intact through an 8-cell FIFO" data out
  | _ -> Alcotest.fail "message lost under FIFO back-pressure"

(* --- descriptor ordering ---------------------------------------------- *)

let test_message_order_preserved () =
  let c, n0, n1, ep0, ep1, a0, ch0, _ = mk_pair () in
  (* interleave small (fast-path) and large (buffer-path) messages on one
     endpoint: arrival order must match send order (one VCI, FIFO fabric) *)
  let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
  ignore
    (Proc.spawn c.sim (fun () ->
         for i = 1 to 6 do
           let desc =
             if i mod 2 = 1 then begin
               let b = Bytes.create 4 in
               Bytes.set_uint16_be b 0 i;
               Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.of_bytes b))
             end
             else begin
               Unet.Segment.write ep0.segment ~off
                 ~src:(Bytes.make 2 (Char.chr i))
                 ~src_pos:0 ~len:2;
               (* mark the sequence in the first byte *)
               let b = Bytes.create 500 in
               Bytes.set_uint16_be b 0 i;
               Unet.Segment.write ep0.segment ~off ~src:b ~src_pos:0 ~len:500;
               Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 500) ])
             end
           in
           (match Unet.send n0.unet ep0 desc with
           | Ok () -> ()
           | Error e -> Fmt.failwith "%a" Unet.pp_error e);
           (* the shared staging buffer forces us to wait for injection *)
           Proc.sleep c.sim ~time:(Sim.us 100)
         done));
  let seen = ref [] in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to 6 do
           let d = Unet.recv n1.unet ep1 in
           let seq =
             match d.rx_payload with
             | Unet.Desc.Inline b -> Buf.get_uint16_be b 0
             | Unet.Desc.Buffers ((off, _) :: _) ->
                 Bytes.get_uint16_be (Unet.Segment.read ep1.segment ~off ~len:2) 0
             | Unet.Desc.Buffers [] -> -1
           in
           seen := seq :: !seen
         done));
  Sim.run c.sim;
  check (Alcotest.list Alcotest.int) "arrival order = send order"
    [ 1; 2; 3; 4; 5; 6 ] (List.rev !seen)

(* --- calibration relationships ---------------------------------------- *)

let rtt_of nic =
  let c, n0, n1, ep0, ep1, _, ch0, ch1 = mk_pair ~nic () in
  ignore
    (Proc.spawn c.sim (fun () ->
         let rec loop () =
           let d = Unet.recv n1.unet ep1 in
           ignore (Unet.send n1.unet ep1 (Unet.Desc.tx ~chan:ch1 d.rx_payload));
           loop ()
         in
         loop ()));
  let sum = ref 0. in
  let iters = 10 in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to iters do
           let t0 = Sim.now c.sim in
           ignore
             (Unet.send n0.unet ep0
                (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 16))));
           ignore (Unet.recv n0.unet ep0);
           sum := !sum +. Sim.to_us (Sim.now c.sim - t0)
         done));
  Sim.run ~until:(Sim.sec 2) c.sim;
  !sum /. float_of_int iters

let test_three_ni_ordering () =
  let unet = rtt_of Cluster.Sba200_unet in
  let sba100 = rtt_of Cluster.Sba100 in
  let fore = rtt_of Cluster.Sba200_fore in
  (* the paper's §4.2.1 irony: the simpler, cheaper SBA-100 beats Fore's
     SBA-200 firmware by ~2.5x; the U-Net firmware beats both *)
  checkb (Printf.sprintf "U-Net %.0f < SBA-100 %.0f < Fore %.0f" unet sba100 fore)
    true
    (unet < sba100 && sba100 < fore);
  checkb "SBA-100 ~ 66 us" true (Float.abs (sba100 -. 66.) < 8.);
  checkb "Fore ~ 160 us" true (Float.abs (fore -. 160.) < 20.)

(* --- SBA-100 specifics -------------------------------------------------- *)

let test_sba100_requires_emulated () =
  let c = Cluster.create ~nic:Cluster.Sba100 () in
  let n0 = Cluster.node c 0 in
  checkb "regular endpoints rejected (no NI resources)" true
    (match Unet.create_endpoint n0.unet ~seg_size:4096 () with
    | Error Unet.Too_many_endpoints -> true
    | _ -> false);
  checkb "emulated endpoints accepted" true
    (Result.is_ok (Unet.create_endpoint n0.unet ~emulated:true ~seg_size:4096 ()))

let test_sba100_sender_pays () =
  (* on the SBA-100 the sending process itself pays the per-cell software
     cost: a 1 KB send occupies the sender's CPU for ~150 us *)
  let c, n0, n1, ep0, _, a0, ch0, _ = mk_pair ~nic:Cluster.Sba100 () in
  ignore n1;
  let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
  let elapsed = ref 0 in
  ignore
    (Proc.spawn c.sim (fun () ->
         let t0 = Sim.now c.sim in
         ignore
           (Unet.send n0.unet ep0
              (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 1024) ])));
         elapsed := Sim.now c.sim - t0));
  Sim.run c.sim;
  (* 22 cells * 7.06 us + fixed costs: the send call itself is the cost *)
  checkb
    (Printf.sprintf "send occupied the caller for %.0f us" (Sim.to_us !elapsed))
    true
    (!elapsed > 140_000 && !elapsed < 190_000)

let test_sba100_stats () =
  let c, n0, n1, ep0, _, _, ch0, _ = mk_pair ~nic:Cluster.Sba100 () in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to 3 do
           ignore
             (Unet.send n0.unet ep0
                (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 8))))
         done));
  Sim.run c.sim;
  checki "sent" 3 (Ni.Sba100.pdus_sent (Option.get n0.sba100));
  checki "received" 3 (Ni.Sba100.pdus_received (Option.get n1.sba100))

(* The host sends every cell from its trap, so no train leaves an SBA-100:
   a 1 KB stream fires as many events with the fast path on as forced off
   (a planned feed would fold the per-cell send events away). *)
let test_sba100_no_train () =
  let events ~forced =
    Trainmode.force_per_cell forced;
    Fun.protect ~finally:(fun () -> Trainmode.force_per_cell false)
    @@ fun () ->
    let fired0 = Sim.events_fired () in
    ignore
      (Experiments.Common.raw_bandwidth ~nic:Cluster.Sba100 ~size:1024
         ~count:200 ()
        : float);
    Sim.events_fired () - fired0
  in
  checki "events: fast path on = forced per-cell" (events ~forced:true)
    (events ~forced:false)

(* --- copy accounting ----------------------------------------------------- *)

let nic_copies layers =
  List.fold_left
    (fun acc l ->
      acc
      + Option.value ~default:0
          (Metrics.counter_value "buf_copies_total" [ ("layer", l) ]))
    0 layers

let test_copy_counts_sba100_vs_sba200 () =
  (* the same workload — 10 multi-cell (1000-byte) messages — on both NIs:
     the SBA-100 PIOs every cell while the i960 DMAs whole PDUs, so the
     SBA-200 must show strictly fewer counted data-path copies *)
  let run nic layers =
    let before = nic_copies layers in
    let c, n0, n1, ep0, ep1, a0, ch0, _ = mk_pair ~nic () in
    let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
    ignore
      (Proc.spawn c.sim (fun () ->
           for _ = 1 to 10 do
             Unet.Segment.write ep0.segment ~off ~src:(Bytes.create 1000)
               ~src_pos:0 ~len:1000;
             (match
                Unet.send n0.unet ep0
                  (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 1000) ]))
              with
             | Ok () -> ()
             | Error e -> Fmt.failwith "%a" Unet.pp_error e);
             Proc.sleep c.sim ~time:(Sim.ms 1)
           done));
    ignore
      (Proc.spawn c.sim (fun () ->
           for _ = 1 to 10 do
             ignore (Unet.recv n1.unet ep1)
           done));
    Sim.run ~until:(Sim.sec 2) c.sim;
    nic_copies layers - before
  in
  let sba100 =
    run Cluster.Sba100 [ "sba100_tx_pio"; "sba100_rx_pio"; "sba100_rx" ]
  in
  let sba200 = run Cluster.Sba200_unet [ "sba200_tx_dma"; "sba200_rx" ] in
  checkb "sba100 counted copies non-zero" true (sba100 > 0);
  checkb "sba200 counted copies non-zero" true (sba200 > 0);
  checkb
    (Printf.sprintf "sba200 %d < sba100 %d (per-PDU DMA vs per-cell PIO)"
       sba200 sba100)
    true (sba200 < sba100)

(* --- firmware configuration sanity -------------------------------------- *)

let test_config_access () =
  let cfg = Ni.I960_nic.sba200_unet in
  checkb "fast path on in the U-Net firmware" true
    cfg.Ni.I960_nic.single_cell_optimization;
  checkb "fast path off in Fore's firmware" false
    Ni.I960_nic.sba200_fore.Ni.I960_nic.single_cell_optimization;
  checkb "U-Net per-cell cost below the 3.03 us wire time" true
    (cfg.Ni.I960_nic.tx_per_cell_ns < 3_029);
  checkb "Fore per-cell cost above the wire time (i960-bound)" true
    (Ni.I960_nic.sba200_fore.Ni.I960_nic.tx_per_cell_ns > 3_029)

let () =
  Alcotest.run "ni"
    [
      ( "i960-nic",
        [
          Alcotest.test_case "pdu counters" `Quick test_pdu_counters;
          Alcotest.test_case "i960 busy accounting" `Quick test_i960_busy_accounting;
          Alcotest.test_case "FIFO stall, no loss" `Quick test_tx_fifo_stall_no_loss;
          Alcotest.test_case "message order" `Quick test_message_order_preserved;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "U-Net < SBA-100 < Fore" `Quick test_three_ni_ordering;
        ] );
      ( "sba100",
        [
          Alcotest.test_case "emulated only" `Quick test_sba100_requires_emulated;
          Alcotest.test_case "sender pays" `Quick test_sba100_sender_pays;
          Alcotest.test_case "stats" `Quick test_sba100_stats;
          Alcotest.test_case "SBA-100 rides no train" `Quick
            test_sba100_no_train;
        ] );
      ( "copy-accounting",
        [
          Alcotest.test_case "SBA-200 copies < SBA-100" `Quick
            test_copy_counts_sba100_vs_sba200;
        ] );
      ( "configs",
        [ Alcotest.test_case "firmware parameters" `Quick test_config_access ] );
    ]
