(* Tests for the U-Net core: descriptor rings, segments, the mux, endpoint
   lifecycle and protection, resource limits, back-pressure, upcalls,
   kernel emulation, direct access, and end-to-end latency calibration. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* --- Ring ---------------------------------------------------------- *)

let test_ring_basic () =
  let r = Unet.Ring.create ~capacity:3 in
  checkb "empty" true (Unet.Ring.is_empty r);
  checkb "push" true (Unet.Ring.push r 1);
  checkb "push" true (Unet.Ring.push r 2);
  checkb "push" true (Unet.Ring.push r 3);
  checkb "full" true (Unet.Ring.is_full r);
  checkb "push on full fails" false (Unet.Ring.push r 4);
  checkb "pop fifo" true (Unet.Ring.pop r = Some 1);
  checkb "peek" true (Unet.Ring.peek r = Some 2);
  checkb "after peek pop" true (Unet.Ring.pop r = Some 2);
  checkb "push after wrap" true (Unet.Ring.push r 5);
  checkb "pop" true (Unet.Ring.pop r = Some 3);
  checkb "pop" true (Unet.Ring.pop r = Some 5);
  checkb "drained" true (Unet.Ring.pop r = None)

let prop_ring_model =
  QCheck.Test.make ~name:"ring behaves like a bounded FIFO queue" ~count:200
    QCheck.(list (option (int_range 0 100)))
    (fun ops ->
      (* Some v = push v, None = pop; compare against a list model *)
      let r = Unet.Ring.create ~capacity:4 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let expect = List.length !model < 4 in
              let got = Unet.Ring.push r v in
              if got then model := !model @ [ v ];
              got = expect
          | None -> (
              match (!model, Unet.Ring.pop r) with
              | [], None -> true
              | x :: rest, Some y when x = y ->
                  model := rest;
                  true
              | _ -> false))
        ops
      && Unet.Ring.length r = List.length !model)

let test_ring_clear () =
  let r = Unet.Ring.create ~capacity:2 in
  ignore (Unet.Ring.push r 1);
  Unet.Ring.clear r;
  checkb "cleared" true (Unet.Ring.is_empty r)

(* --- Segment ------------------------------------------------------- *)

let test_segment_rw () =
  let s = Unet.Segment.create ~size:128 in
  Unet.Segment.write s ~off:10 ~src:(Bytes.of_string "hello") ~src_pos:0 ~len:5;
  check Alcotest.string "read back" "hello"
    (Bytes.to_string (Unet.Segment.read s ~off:10 ~len:5))

let test_segment_bounds () =
  let s = Unet.Segment.create ~size:64 in
  checkb "in bounds" true (Result.is_ok (Unet.Segment.check_range s ~off:0 ~len:64));
  checkb "overflow" true (Result.is_error (Unet.Segment.check_range s ~off:60 ~len:5));
  checkb "negative" true (Result.is_error (Unet.Segment.check_range s ~off:(-1) ~len:1))

let test_allocator () =
  let s = Unet.Segment.create ~size:1024 in
  let a = Unet.Segment.Allocator.create s ~block:256 in
  checki "4 blocks" 4 (Unet.Segment.Allocator.free_count a);
  let b1 = Option.get (Unet.Segment.Allocator.alloc a) in
  let _ = Option.get (Unet.Segment.Allocator.alloc a) in
  let _ = Option.get (Unet.Segment.Allocator.alloc a) in
  let _ = Option.get (Unet.Segment.Allocator.alloc a) in
  checkb "exhausted" true (Unet.Segment.Allocator.alloc a = None);
  Unet.Segment.Allocator.free a b1;
  checkb "reusable" true (Unet.Segment.Allocator.alloc a = Some b1)

let test_allocator_double_free () =
  let s = Unet.Segment.create ~size:512 in
  let a = Unet.Segment.Allocator.create s ~block:256 in
  let b = Option.get (Unet.Segment.Allocator.alloc a) in
  Unet.Segment.Allocator.free a b;
  checkb "double free rejected" true
    (try
       Unet.Segment.Allocator.free a b;
       false
     with Invalid_argument _ -> true)

let prop_allocator_model =
  QCheck.Test.make ~name:"allocator: blocks unique, never double-handed"
    ~count:100
    QCheck.(list (option unit))
    (fun ops ->
      (* Some () = alloc, None = free the oldest outstanding block *)
      let seg = Unet.Segment.create ~size:2048 in
      let a = Unet.Segment.Allocator.create seg ~block:256 in
      let held = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some () -> (
              match Unet.Segment.Allocator.alloc a with
              | Some b ->
                  (* a handed-out block must not already be held *)
                  let fresh = not (List.mem b !held) in
                  held := b :: !held;
                  fresh
              | None -> List.length !held = 8 (* only fails when exhausted *))
          | None -> (
              match List.rev !held with
              | [] -> true
              | oldest :: _ ->
                  held := List.filter (fun x -> x <> oldest) !held;
                  Unet.Segment.Allocator.free a oldest;
                  true))
        ops
      && Unet.Segment.Allocator.free_count a = 8 - List.length !held)

(* --- Mux (unit level) ---------------------------------------------- *)

let mk_ep sim ~free_slots ~rx_slots =
  let ep =
    Unet.Endpoint.create ~sim ~id:0 ~host:0 ~seg_size:4096 ~tx_slots:4
      ~rx_slots ~free_slots ~emulated:false ~direct_access:false
  in
  ep

let test_mux_register_lookup () =
  let sim = Sim.create () in
  let mux = Unet.Mux.create () in
  let ep = mk_ep sim ~free_slots:4 ~rx_slots:4 in
  Unet.Mux.register mux ~rx_vci:32 ep ~chan:7;
  checkb "lookup hits" true
    (match Unet.Mux.lookup mux ~rx_vci:32 with
    | Some (e, 7) -> e == ep
    | _ -> false);
  checkb "duplicate tag rejected" true
    (try
       Unet.Mux.register mux ~rx_vci:32 ep ~chan:8;
       false
     with Invalid_argument _ -> true);
  Unet.Mux.unregister mux ~rx_vci:32;
  checkb "gone" true (Unet.Mux.lookup mux ~rx_vci:32 = None)

let test_mux_deliver_inline () =
  let sim = Sim.create () in
  let mux = Unet.Mux.create () in
  let ep = mk_ep sim ~free_slots:4 ~rx_slots:4 in
  Unet.Mux.register mux ~rx_vci:32 ep ~chan:7;
  (match Unet.Mux.deliver mux ~rx_vci:32 (Buf.of_string "hi") with
  | Some (_, 7, Unet.Mux.Delivered_inline) -> ()
  | _ -> Alcotest.fail "expected inline delivery");
  match Unet.Ring.pop ep.rx_ring with
  | Some { Unet.Desc.src_chan = 7; rx_payload = Unet.Desc.Inline b; _ } ->
      check Alcotest.string "payload" "hi"
        (Bytes.to_string (Buf.to_bytes ~layer:"test" b))
  | _ -> Alcotest.fail "bad rx descriptor"

let test_mux_deliver_buffers () =
  let sim = Sim.create () in
  let mux = Unet.Mux.create () in
  let ep = mk_ep sim ~free_slots:4 ~rx_slots:4 in
  ignore (Unet.Ring.push ep.free_ring (0, 64));
  ignore (Unet.Ring.push ep.free_ring (64, 64));
  Unet.Mux.register mux ~rx_vci:32 ep ~chan:1;
  let data = Bytes.init 100 Char.chr in
  (match Unet.Mux.deliver mux ~rx_vci:32 (Buf.of_bytes data) with
  | Some (_, _, Unet.Mux.Delivered_buffers bufs) ->
      checki "two buffers used" 2 (List.length bufs);
      checki "lengths cover the message" 100
        (List.fold_left (fun a (_, l) -> a + l) 0 bufs)
  | _ -> Alcotest.fail "expected buffered delivery");
  (* the data must actually be in the segment *)
  check Alcotest.bytes "segment contents"
    (Bytes.sub data 0 64)
    (Unet.Segment.read ep.segment ~off:0 ~len:64)

let test_mux_drop_no_free_buffer () =
  let sim = Sim.create () in
  let mux = Unet.Mux.create () in
  let ep = mk_ep sim ~free_slots:4 ~rx_slots:4 in
  Unet.Mux.register mux ~rx_vci:32 ep ~chan:1;
  (match Unet.Mux.deliver mux ~rx_vci:32 (Buf.alloc 100) with
  | Some (_, _, Unet.Mux.Dropped_no_free_buffer) -> ()
  | _ -> Alcotest.fail "expected drop");
  checki "drop counted" 1 ep.drops_no_free_buffer

let test_mux_drop_rx_full () =
  let sim = Sim.create () in
  let mux = Unet.Mux.create () in
  let ep = mk_ep sim ~free_slots:4 ~rx_slots:1 in
  Unet.Mux.register mux ~rx_vci:32 ep ~chan:1;
  ignore (Unet.Mux.deliver mux ~rx_vci:32 (Buf.of_string "a"));
  (match Unet.Mux.deliver mux ~rx_vci:32 (Buf.of_string "b") with
  | Some (_, _, Unet.Mux.Dropped_rx_full) -> ()
  | _ -> Alcotest.fail "expected rx-full drop");
  checki "drop counted" 1 ep.drops_rx_full

let test_mux_unknown_tag () =
  let mux = Unet.Mux.create () in
  checkb "unknown tag" true
    (Unet.Mux.deliver mux ~rx_vci:9 (Buf.alloc 1) = None);
  checki "counted" 1 (Unet.Mux.unknown_tag_drops mux)

(* --- endpoint lifecycle, protection, limits -------------------------- *)

let with_pair ?nic f =
  let c = Cluster.create ?nic () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  f c n0 n1

let test_endpoint_limit () =
  with_pair (fun _ n0 _ ->
      let results =
        List.init 17 (fun _ ->
            Unet.create_endpoint n0.unet ~seg_size:1024 ())
      in
      let ok = List.filter Result.is_ok results in
      checki "SBA-200 limit of 16 endpoints" 16 (List.length ok);
      checkb "17th rejected" true
        (match List.nth results 16 with
        | Error Unet.Too_many_endpoints -> true
        | _ -> false))

let test_emulated_bypasses_limit () =
  with_pair (fun _ n0 _ ->
      List.iter
        (fun r -> checkb "real ok" true (Result.is_ok r))
        (List.init 16 (fun _ -> Unet.create_endpoint n0.unet ~seg_size:1024 ()));
      checkb "emulated endpoints don't consume NI slots" true
        (Result.is_ok (Unet.create_endpoint n0.unet ~emulated:true ~seg_size:1024 ())))

let test_segment_too_large () =
  with_pair (fun _ n0 _ ->
      checkb "oversized segment rejected" true
        (match Unet.create_endpoint n0.unet ~seg_size:(64 * 1024 * 1024) () with
        | Error Unet.Segment_too_large -> true
        | _ -> false))

let test_pinned_exhaustion () =
  let c = Cluster.create () in
  let n0 = Cluster.node c 0 in
  let nic = Option.get n0.i960 in
  let u =
    Unet.create ~cpu:n0.cpu ~net:c.net ~host:0 ~pinned_capacity:100_000
      (Ni.I960_nic.backend nic)
  in
  checkb "first fits" true (Result.is_ok (Unet.create_endpoint u ~seg_size:50_000 ()));
  checkb "second exhausts pinned memory" true
    (match Unet.create_endpoint u ~seg_size:50_000 () with
    | Error Unet.Pinned_exhausted -> true
    | _ -> false)

let test_destroy_releases () =
  with_pair (fun _ n0 _ ->
      let before = Host.Pinned.used (Unet.pinned n0.unet) in
      let ep = Result.get_ok (Unet.create_endpoint n0.unet ~seg_size:4096 ()) in
      checkb "pinned grew" true (Host.Pinned.used (Unet.pinned n0.unet) > before);
      Unet.destroy_endpoint n0.unet ep;
      checki "pinned restored" before (Host.Pinned.used (Unet.pinned n0.unet));
      checki "endpoint gone" 0 (Unet.endpoint_count n0.unet))

let test_send_protection () =
  with_pair (fun c n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint n0 in
      let ep1, _ = Cluster.simple_endpoint n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      ignore
        (Proc.spawn c.sim (fun () ->
             (* unknown channel *)
             (match
                Unet.send n0.unet ep0
                  (Unet.Desc.tx ~chan:999 (Unet.Desc.Inline (Buf.alloc 4)))
              with
             | Error Unet.Bad_channel -> ()
             | _ -> Alcotest.fail "expected Bad_channel");
             (* buffer outside the segment *)
             (match
                Unet.send n0.unet ep0
                  (Unet.Desc.tx ~chan:ch0
                     (Unet.Desc.Buffers [ (1_000_000, 100) ]))
              with
             | Error (Unet.Bad_buffer _) -> ()
             | _ -> Alcotest.fail "expected Bad_buffer");
             (* inline too large *)
             match
               Unet.send n0.unet ep0
                 (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 41)))
             with
             | Error Unet.Inline_too_large -> ()
             | _ -> Alcotest.fail "expected Inline_too_large"));
      Sim.run c.sim)

let test_send_backpressure () =
  with_pair (fun c n0 n1 ->
      let ep0 =
        Result.get_ok
          (Unet.create_endpoint n0.unet ~tx_slots:1 ~seg_size:4096 ())
      in
      let ep1, _ = Cluster.simple_endpoint n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      ignore
        (Proc.spawn c.sim (fun () ->
             let payload = Unet.Desc.Inline (Buf.alloc 4) in
             (* the NI picks up the first descriptor immediately; the second
                parks in the 1-slot ring; the third bounces *)
             checkb "1st accepted" true
               (Result.is_ok (Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload)));
             checkb "2nd queued" true
               (Result.is_ok (Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload)));
             match Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload) with
             | Error Unet.Queue_full -> ()
             | _ -> Alcotest.fail "expected back-pressure"));
      Sim.run c.sim)

let test_free_buffer_validation () =
  with_pair (fun _ n0 _ ->
      let ep = Result.get_ok (Unet.create_endpoint n0.unet ~seg_size:4096 ()) in
      checkb "bad range rejected" true
        (match Unet.provide_free_buffer n0.unet ep ~off:4000 ~len:1000 with
        | Error (Unet.Bad_buffer _) -> true
        | _ -> false))

(* --- end-to-end data path, upcalls, calibration ---------------------- *)

let ping ~c ~n0 ~n1 ~ep0 ~ep1 ~ch0 size =
  ignore n1;
  let got = ref None in
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         ignore
           (Unet.send n0.Cluster.unet ep0
              (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc size))))));
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         got := Some (Unet.recv n1.Cluster.unet ep1)));
  Sim.run c.Cluster.sim;
  !got

let test_end_to_end_delivery () =
  with_pair (fun c n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint n0 in
      let ep1, _ = Cluster.simple_endpoint n1 in
      let ch0, ch1 = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      ignore ch1;
      match ping ~c ~n0 ~n1 ~ep0 ~ep1 ~ch0 16 with
      | Some { Unet.Desc.src_chan; rx_payload = Unet.Desc.Inline b; _ } ->
          checki "source channel reported" ch1 src_chan;
          checki "length" 16 (Buf.length b)
      | _ -> Alcotest.fail "no delivery")

let test_data_integrity_large () =
  with_pair (fun c n0 n1 ->
      let ep0, a0 = Cluster.simple_endpoint n0 in
      let ep1, _ = Cluster.simple_endpoint n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      let data = Bytes.init 3000 (fun i -> Char.chr (i mod 251)) in
      let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
      Unet.Segment.write ep0.segment ~off ~src:data ~src_pos:0 ~len:3000;
      let got = ref None in
      ignore
        (Proc.spawn c.sim (fun () ->
             ignore
               (Unet.send n0.unet ep0
                  (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 3000) ])))));
      ignore (Proc.spawn c.sim (fun () -> got := Some (Unet.recv n1.unet ep1)));
      Sim.run c.sim;
      match !got with
      | Some { Unet.Desc.rx_payload = Unet.Desc.Buffers bufs; _ } ->
          let out = Bytes.create 3000 in
          let pos = ref 0 in
          List.iter
            (fun (o, l) ->
              Unet.Segment.blit_out ep1.segment ~off:o ~dst:out ~dst_pos:!pos ~len:l;
              pos := !pos + l)
            bufs;
          check Alcotest.bytes "payload intact across the fabric" data out
      | _ -> Alcotest.fail "no delivery")

let test_upcall_nonempty_edge () =
  with_pair (fun c n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint n0 in
      let ep1, _ = Cluster.simple_endpoint n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      let fired = ref 0 in
      Unet.set_upcall n1.unet ep1 Unet.Endpoint.Rx_nonempty (fun () -> incr fired);
      ignore
        (Proc.spawn c.sim (fun () ->
             for _ = 1 to 3 do
               ignore
                 (Unet.send n0.unet ep0
                    (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 4))));
               Proc.sleep c.sim ~time:(Sim.us 5)
             done));
      Sim.run c.sim;
      (* all three arrive without the queue being drained: only the first
         empty->nonempty transition fires *)
      checki "edge-triggered" 1 !fired)

let test_upcall_disable_enable () =
  with_pair (fun c n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint n0 in
      let ep1, _ = Cluster.simple_endpoint n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      let fired = ref 0 in
      Unet.set_upcall n1.unet ep1 Unet.Endpoint.Rx_nonempty (fun () -> incr fired);
      Unet.disable_upcalls n1.unet ep1;
      ignore
        (Proc.spawn c.sim (fun () ->
             ignore
               (Unet.send n0.unet ep0
                  (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 4))))));
      Sim.run c.sim;
      checki "masked during the critical section" 0 !fired;
      Unet.enable_upcalls n1.unet ep1;
      checki "fires on re-enable with pending messages" 1 !fired)

let test_upcall_almost_full () =
  with_pair (fun c n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint n0 in
      let ep1 =
        Result.get_ok (Unet.create_endpoint n1.unet ~rx_slots:4 ~seg_size:4096 ())
      in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      let fired = ref 0 in
      Unet.set_upcall n1.unet ep1 Unet.Endpoint.Rx_almost_full (fun () -> incr fired);
      ignore
        (Proc.spawn c.sim (fun () ->
             for _ = 1 to 3 do
               ignore
                 (Unet.send n0.unet ep0
                    (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 4))))
             done));
      Sim.run c.sim;
      checkb "fires as the queue approaches capacity" true (!fired >= 1))

let measure_rtt ?(emulated = false) ?(nic = Cluster.Sba200_unet) ~size iters =
  let c = Cluster.create ~nic () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let ep0, _ = Cluster.simple_endpoint ~emulated n0 in
  let ep1, _ = Cluster.simple_endpoint ~emulated n1 in
  let ch0, ch1 = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  let payload = Unet.Desc.Inline (Buf.alloc size) in
  ignore
    (Proc.spawn c.sim (fun () ->
         let rec loop () =
           let d = Unet.recv n1.unet ep1 in
           ignore (Unet.send n1.unet ep1 (Unet.Desc.tx ~chan:ch1 d.rx_payload));
           loop ()
         in
         loop ()));
  let sum = ref 0. in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to iters do
           let t0 = Sim.now c.sim in
           ignore (Unet.send n0.unet ep0 (Unet.Desc.tx ~chan:ch0 payload));
           ignore (Unet.recv n0.unet ep0);
           sum := !sum +. Sim.to_us (Sim.now c.sim - t0)
         done));
  Sim.run ~until:(Sim.sec 5) c.sim;
  !sum /. float_of_int iters

let test_single_cell_rtt_calibration () =
  let rtt = measure_rtt ~size:16 20 in
  checkb (Printf.sprintf "single-cell RTT %.1f us within 10%% of 65" rtt) true
    (Float.abs (rtt -. 65.) <= 6.5)

let test_emulated_endpoint_slower () =
  let fast = measure_rtt ~size:16 10 in
  let slow = measure_rtt ~emulated:true ~size:16 10 in
  checkb
    (Printf.sprintf "kernel emulation costs (%.1f vs %.1f us)" slow fast)
    true
    (slow > fast +. 30.)

let test_fore_firmware_slower () =
  let unet = measure_rtt ~size:16 10 in
  let fore = measure_rtt ~nic:Cluster.Sba200_fore ~size:16 10 in
  checkb
    (Printf.sprintf "Fore firmware RTT %.0f us ~ 160 (U-Net: %.0f)" fore unet)
    true
    (fore > 140. && fore < 185. && unet < 70.)

(* --- direct-access U-Net -------------------------------------------- *)

(* On the SBA-200 the endpoints are real, or emulated by the kernel mux,
   which stages the framed PDU through its own endpoint; the SBA-100 has
   only emulated ones, which its host-side NI services directly. *)
let direct_access_deposit (nic, emulated) =
  with_pair ~nic (fun c n0 n1 ->
      let name =
        match (nic, emulated) with
        | Cluster.Sba100, _ -> "SBA-100"
        | _, true -> "SBA-200 emulated"
        | _, false -> "SBA-200"
      in
      let ep0, _ = Cluster.simple_endpoint ~emulated ~direct_access:true n0 in
      let ep1, _ = Cluster.simple_endpoint ~emulated ~direct_access:true n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      let data = Buf.of_string "deposited-directly" in
      ignore
        (Proc.spawn c.sim (fun () ->
             ignore
               (Unet.send n0.unet ep0
                  (Unet.Desc.tx ~dest_offset:512 ~chan:ch0
                     (Unet.Desc.Inline data)))));
      let got = ref None in
      ignore (Proc.spawn c.sim (fun () -> got := Some (Unet.recv n1.unet ep1)));
      Sim.run c.sim;
      (* data is at the sender-specified offset in the receiver's segment *)
      check Alcotest.bytes (name ^ ": at offset 512")
        (Buf.to_bytes ~layer:"test" data)
        (Unet.Segment.read ep1.segment ~off:512 ~len:(Buf.length data));
      match !got with
      | Some { Unet.Desc.rx_payload = Unet.Desc.Buffers [ (512, len) ]; _ } ->
          checki (name ^ ": notification points at the deposit")
            (Buf.length data) len
      | _ -> Alcotest.fail (name ^ ": expected a direct-access notification"))

let test_direct_access_deposit () =
  List.iter direct_access_deposit
    [
      (Cluster.Sba200_unet, false);
      (Cluster.Sba200_unet, true);
      (Cluster.Sba100, true);
    ]

let test_direct_access_bad_offset () =
  with_pair (fun c n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint ~direct_access:true n0 in
      let ep1, _ =
        Cluster.simple_endpoint ~direct_access:true ~seg_size:4096 ~free_buffers:0
          n1
      in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      ignore
        (Proc.spawn c.sim (fun () ->
             ignore
               (Unet.send n0.unet ep0
                  (Unet.Desc.tx ~dest_offset:100_000 ~chan:ch0
                     (Unet.Desc.Inline (Buf.of_string "x"))))));
      Sim.run c.sim;
      checki "nothing delivered" 0 ep1.rx_delivered)

let test_direct_mismatch_rejected () =
  with_pair (fun _ n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint ~direct_access:true n0 in
      let ep1, _ = Cluster.simple_endpoint n1 in
      checkb "direct/base connection rejected" true
        (try
           ignore (Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1));
           false
         with Invalid_argument _ -> true))

let test_dest_offset_requires_direct () =
  with_pair (fun c n0 n1 ->
      let ep0, _ = Cluster.simple_endpoint n0 in
      let ep1, _ = Cluster.simple_endpoint n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      ignore
        (Proc.spawn c.sim (fun () ->
             match
               Unet.send n0.unet ep0
                 (Unet.Desc.tx ~dest_offset:64 ~chan:ch0
                    (Unet.Desc.Inline (Buf.of_string "x")))
             with
             | Error Unet.Not_direct_access -> ()
             | _ -> Alcotest.fail "expected Not_direct_access"));
      Sim.run c.sim)

(* --- kernel multiplexing of emulated endpoints (§3.5) ----------------- *)

let test_kemu_single_real_endpoint () =
  (* many emulated endpoints, each connected, must consume exactly one real
     endpoint (the kernel's) on the host *)
  let c = Cluster.create () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let mk_emu n =
    List.init n (fun _ ->
        fst
          (Cluster.simple_endpoint ~emulated:true ~seg_size:65_536
             ~free_buffers:8 n0))
  in
  let emus = mk_emu 5 in
  let remotes =
    List.map (fun _ -> fst (Cluster.simple_endpoint n1)) emus
  in
  List.iter2
    (fun e r -> ignore (Unet.connect_pair (n0.unet, e) (n1.unet, r)))
    emus remotes;
  (* 5 emulated endpoints + the kernel's one real endpoint *)
  checki "host 0 has 6 endpoints total" 6 (Unet.endpoint_count n0.unet);
  checkb "the kernel endpoint exists and is real" true
    (match Unet.kernel_endpoint n0.unet with
    | Some kep -> not kep.emulated
    | None -> false);
  (* the NI still has 15 real slots free: a 16th real endpoint succeeds
     15 more times, then fails *)
  let more =
    List.init 16 (fun _ -> Unet.create_endpoint n0.unet ~seg_size:1024 ())
  in
  checki "15 more real endpoints fit" 15
    (List.length (List.filter Result.is_ok more))

let test_kemu_traffic_roundtrip () =
  (* emulated <-> real across hosts, with data big enough to stage through
     kernel buffers in both directions *)
  let c = Cluster.create () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let ep0, a0 = Cluster.simple_endpoint ~emulated:true n0 in
  let ep1, _ = Cluster.simple_endpoint n1 in
  let ch0, ch1 = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  let data = Bytes.init 6_000 (fun i -> Char.chr ((i * 17) mod 256)) in
  let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
  Unet.Segment.write ep0.segment ~off ~src:data ~src_pos:0 ~len:4_160;
  let off2, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
  Unet.Segment.write ep0.segment ~off:off2 ~src:data ~src_pos:4_160
    ~len:(6_000 - 4_160);
  ignore
    (Proc.spawn c.sim (fun () ->
         match
           Unet.send n0.unet ep0
             (Unet.Desc.tx ~chan:ch0
                (Unet.Desc.Buffers [ (off, 4_160); (off2, 6_000 - 4_160) ]))
         with
         | Ok () -> ()
         | Error e -> Fmt.failwith "%a" Unet.pp_error e));
  (* echo it back so the emulated receive path is exercised too *)
  let got_back = ref None in
  ignore
    (Proc.spawn c.sim (fun () ->
         let d = Unet.recv n1.unet ep1 in
         ignore (Unet.send n1.unet ep1 (Unet.Desc.tx ~chan:ch1 d.rx_payload))));
  ignore
    (Proc.spawn c.sim (fun () -> got_back := Some (Unet.recv n0.unet ep0)));
  Sim.run c.sim;
  match !got_back with
  | Some { Unet.Desc.rx_payload = Unet.Desc.Buffers bufs; _ } ->
      let out = Bytes.create 6_000 in
      let pos = ref 0 in
      List.iter
        (fun (o, l) ->
          Unet.Segment.blit_out ep0.segment ~off:o ~dst:out ~dst_pos:!pos ~len:l;
          pos := !pos + l)
        bufs;
      check Alcotest.bytes "data intact through four staging copies" data out
  | _ -> Alcotest.fail "no echo arrived"

let test_kemu_emulated_to_emulated () =
  let c = Cluster.create () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let ep0, _ = Cluster.simple_endpoint ~emulated:true n0 in
  let ep1, _ = Cluster.simple_endpoint ~emulated:true n1 in
  let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  let got = ref None in
  ignore
    (Proc.spawn c.sim (fun () ->
         ignore
           (Unet.send n0.unet ep0
              (Unet.Desc.tx ~chan:ch0
                 (Unet.Desc.Inline (Buf.of_string "via-two-kernels"))))));
  ignore (Proc.spawn c.sim (fun () -> got := Some (Unet.recv n1.unet ep1)));
  Sim.run c.sim;
  match !got with
  | Some { Unet.Desc.rx_payload = Unet.Desc.Inline b; _ } ->
      check Alcotest.string "payload" "via-two-kernels"
        (Bytes.to_string (Buf.to_bytes ~layer:"test" b))
  | _ -> Alcotest.fail "nothing delivered"

let test_kemu_demux_two_endpoints () =
  (* two emulated endpoints on one host, distinct channels: the kernel must
     demultiplex arriving traffic back to the right one *)
  let c = Cluster.create () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let e_a, _ = Cluster.simple_endpoint ~emulated:true n0 in
  let e_b, _ = Cluster.simple_endpoint ~emulated:true n0 in
  let r, _ = Cluster.simple_endpoint n1 in
  let _, ch_ra = Unet.connect_pair (n0.unet, e_a) (n1.unet, r) in
  let _, ch_rb = Unet.connect_pair (n0.unet, e_b) (n1.unet, r) in
  ignore
    (Proc.spawn c.sim (fun () ->
         ignore
           (Unet.send n1.unet r
              (Unet.Desc.tx ~chan:ch_ra (Unet.Desc.Inline (Buf.of_string "A"))));
         ignore
           (Unet.send n1.unet r
              (Unet.Desc.tx ~chan:ch_rb (Unet.Desc.Inline (Buf.of_string "B"))))));
  let at_a = ref "" and at_b = ref "" in
  ignore
    (Proc.spawn c.sim (fun () ->
         (match (Unet.recv n0.unet e_a).rx_payload with
         | Unet.Desc.Inline b -> at_a := Bytes.to_string (Buf.to_bytes ~layer:"test" b)
         | _ -> ())));
  ignore
    (Proc.spawn c.sim (fun () ->
         (match (Unet.recv n0.unet e_b).rx_payload with
         | Unet.Desc.Inline b -> at_b := Bytes.to_string (Buf.to_bytes ~layer:"test" b)
         | _ -> ())));
  Sim.run c.sim;
  check Alcotest.string "endpoint A got A" "A" !at_a;
  check Alcotest.string "endpoint B got B" "B" !at_b

(* --- loss behaviour -------------------------------------------------- *)

let test_cell_loss_discards_whole_messages () =
  let c = Cluster.create () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let ep0, a0 = Cluster.simple_endpoint n0 in
  let ep1, _ = Cluster.simple_endpoint ~free_buffers:60 ~rx_slots:256 n1 in
  let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
  Lossy.set (Atm.Network.uplink c.net ~host:0) ~seed:42 ~p:0.05;
  let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to 100 do
           (match
              Unet.send n0.unet ep0
                (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 2000) ]))
            with
           | Ok () -> ()
           | Error Unet.Queue_full -> Proc.sleep c.sim ~time:(Sim.us 50)
           | Error e -> Fmt.failwith "%a" Unet.pp_error e);
           Proc.sleep c.sim ~time:(Sim.us 200)
         done));
  Sim.run ~until:(Sim.sec 2) c.sim;
  let nic1 = Option.get n1.i960 in
  checkb "reassembly errors recorded" true
    (Ni.I960_nic.reassembly_errors nic1 > 0);
  checkb "some messages lost" true (ep1.rx_delivered < 100);
  checkb "most messages still arrive" true (ep1.rx_delivered > 10)

(* --- buffer duties --------------------------------------------------- *)

(* every data-path copy so far, over all layers *)
let copies_total () =
  String.split_on_char '\n' (Metrics.to_prometheus_string ())
  |> List.filter (fun l ->
         String.length l > 17 && String.sub l 0 17 = "buf_copies_total{")
  |> List.fold_left
       (fun acc l ->
         acc + int_of_string (List.nth (String.split_on_char ' ' l) 1))
       0

(* Three 3000-byte messages reach a receiver with two free buffers, 1 ms
   apart. The first is taken (copied out), the second released. The third
   lands in the buffer the first was taken from, and the taken copy stays
   intact. *)
let test_take_and_release () =
  with_pair (fun c n0 n1 ->
      let ep0, a0 = Cluster.simple_endpoint n0 in
      let ep1, a1 = Cluster.simple_endpoint ~free_buffers:2 n1 in
      let ch0, _ = Unet.connect_pair (n0.unet, ep0) (n1.unet, ep1) in
      let msg i = Bytes.make 3000 (Char.chr (Char.code 'a' + i)) in
      ignore
        (Proc.spawn c.sim (fun () ->
             for i = 0 to 2 do
               let off, _ = Option.get (Unet.Segment.Allocator.alloc a0) in
               Unet.Segment.write ep0.segment ~off ~src:(msg i) ~src_pos:0
                 ~len:3000;
               ignore
                 (Unet.send n0.unet ep0
                    (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Buffers [ (off, 3000) ])));
               Proc.sleep c.sim ~time:(Sim.ms 1)
             done));
      let buffers (d : Unet.Desc.rx) =
        match d.rx_payload with
        | Unet.Desc.Buffers bufs -> bufs
        | Unet.Desc.Inline _ -> Alcotest.fail "expected a buffered message"
      in
      let copies_before = ref 0 and copies_after = ref 0 in
      let taken = ref Buf.empty and first = ref [] and third = ref [] in
      ignore
        (Proc.spawn c.sim (fun () ->
             let d0 = Unet.recv n1.unet ep1 in
             first := buffers d0;
             let c0 = copies_total () in
             taken := Unet.take n1.unet ep1 a1 ~layer:"test_take" d0;
             copies_before := copies_total () - c0;
             Unet.release n1.unet ep1 a1 (Unet.recv n1.unet ep1);
             let d2 = Unet.recv n1.unet ep1 in
             third := buffers d2;
             let c2 = copies_total () in
             Unet.release n1.unet ep1 a1 d2;
             copies_after := copies_total () - c2));
      Sim.run c.sim;
      checkb "the third message refilled the taken buffer" true
        (List.map fst !third = List.map fst !first);
      checkb "the taken message is intact" true
        (Buf.equal_bytes !taken (msg 0));
      checki "take made one copy" 1 !copies_before;
      checki "under the layer given" 1
        (Option.value ~default:0
           (Metrics.counter_value "buf_copies_total" [ ("layer", "test_take") ]));
      checki "release made none" 0 !copies_after;
      checki "the free ring holds every block again" 2
        (Unet.Ring.length ep1.free_ring);
      Unet.Ring.iter
        (fun (_, len) ->
          checki "at the allocator's block size"
            (Unet.Segment.Allocator.block_size a1)
            len)
        ep1.free_ring)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "unet"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basic;
          qt prop_ring_model;
          Alcotest.test_case "clear" `Quick test_ring_clear;
        ] );
      ( "segment",
        [
          Alcotest.test_case "read/write" `Quick test_segment_rw;
          Alcotest.test_case "bounds" `Quick test_segment_bounds;
          Alcotest.test_case "allocator" `Quick test_allocator;
          Alcotest.test_case "double free" `Quick test_allocator_double_free;
          qt prop_allocator_model;
        ] );
      ( "mux",
        [
          Alcotest.test_case "register/lookup" `Quick test_mux_register_lookup;
          Alcotest.test_case "inline delivery" `Quick test_mux_deliver_inline;
          Alcotest.test_case "buffered delivery" `Quick test_mux_deliver_buffers;
          Alcotest.test_case "no-free-buffer drop" `Quick test_mux_drop_no_free_buffer;
          Alcotest.test_case "rx-full drop" `Quick test_mux_drop_rx_full;
          Alcotest.test_case "unknown tag" `Quick test_mux_unknown_tag;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "NI endpoint limit" `Quick test_endpoint_limit;
          Alcotest.test_case "emulated bypass" `Quick test_emulated_bypasses_limit;
          Alcotest.test_case "segment size limit" `Quick test_segment_too_large;
          Alcotest.test_case "pinned exhaustion" `Quick test_pinned_exhaustion;
          Alcotest.test_case "destroy releases" `Quick test_destroy_releases;
          Alcotest.test_case "send protection" `Quick test_send_protection;
          Alcotest.test_case "back-pressure" `Quick test_send_backpressure;
          Alcotest.test_case "free buffer validation" `Quick test_free_buffer_validation;
        ] );
      ( "datapath",
        [
          Alcotest.test_case "end-to-end delivery" `Quick test_end_to_end_delivery;
          Alcotest.test_case "large message integrity" `Quick test_data_integrity_large;
          Alcotest.test_case "upcall nonempty edge" `Quick test_upcall_nonempty_edge;
          Alcotest.test_case "upcall mask/unmask" `Quick test_upcall_disable_enable;
          Alcotest.test_case "upcall almost-full" `Quick test_upcall_almost_full;
          Alcotest.test_case "single-cell RTT 65us" `Quick test_single_cell_rtt_calibration;
          Alcotest.test_case "kernel emulation slower" `Quick test_emulated_endpoint_slower;
          Alcotest.test_case "Fore firmware ~160us" `Quick test_fore_firmware_slower;
          Alcotest.test_case "take copies out, release does not" `Quick
            test_take_and_release;
        ] );
      ( "direct-access",
        [
          Alcotest.test_case "deposit at offset" `Quick test_direct_access_deposit;
          Alcotest.test_case "bad offset dropped" `Quick test_direct_access_bad_offset;
          Alcotest.test_case "direct/base mismatch" `Quick test_direct_mismatch_rejected;
          Alcotest.test_case "offset needs direct" `Quick test_dest_offset_requires_direct;
        ] );
      ( "kernel-mux",
        [
          Alcotest.test_case "one real endpoint" `Quick test_kemu_single_real_endpoint;
          Alcotest.test_case "traffic roundtrip" `Quick test_kemu_traffic_roundtrip;
          Alcotest.test_case "emulated to emulated" `Quick test_kemu_emulated_to_emulated;
          Alcotest.test_case "demux two endpoints" `Quick test_kemu_demux_two_endpoints;
        ] );
      ( "loss",
        [
          Alcotest.test_case "cell loss discards PDUs" `Quick
            test_cell_loss_discards_whole_messages;
        ] );
    ]
