(* Tests for U-Net Active Messages: request/reply semantics, windowed flow
   control, go-back-N reliability under injected cell loss, and the bulk
   transfer layer. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let pair ?config () =
  let c = Cluster.create () in
  let a0 = Uam.create ?config (Cluster.node c 0).unet ~rank:0 ~nodes:2 in
  let a1 = Uam.create ?config (Cluster.node c 1).unet ~rank:1 ~nodes:2 in
  Uam.connect a0 a1;
  (c, a0, a1)

let serve c am = ignore (Proc.spawn c.Cluster.sim (fun () -> Uam.poll_until am (fun () -> false)))

let test_request_reply_roundtrip () =
  let c, a0, a1 = pair () in
  let got_args = ref [||] and got_payload = ref Bytes.empty in
  let replied = ref false in
  Uam.register_handler a1 1 (fun am ~src tk ~args ~payload ->
      checki "source rank" 0 src;
      got_args := args;
      got_payload := Buf.to_bytes ~layer:"test" payload;
      Uam.reply am (Option.get tk) ~handler:2 ~args:[| 9 |]
        ~payload:(Buf.of_string "pong") ());
  Uam.register_handler a0 2 (fun _ ~src tk ~args ~payload ->
      checki "reply source" 1 src;
      checkb "replies carry no token" true (tk = None);
      checki "reply arg" 9 args.(0);
      check Alcotest.string "reply payload" "pong"
        (Bytes.to_string (Buf.to_bytes ~layer:"test" payload));
      replied := true);
  serve c a1;
  ignore
    (Proc.spawn c.sim (fun () ->
         Uam.request a0 ~dst:1 ~handler:1 ~args:[| 1; 2; 3; 4 |]
           ~payload:(Buf.of_string "ping") ();
         Uam.poll_until a0 (fun () -> !replied)));
  Sim.run ~until:(Sim.sec 1) c.sim;
  checkb "reply processed" true !replied;
  check (Alcotest.array Alcotest.int) "args" [| 1; 2; 3; 4 |] !got_args;
  check Alcotest.string "payload" "ping" (Bytes.to_string !got_payload)

let test_reply_twice_rejected () =
  let c, a0, a1 = pair () in
  let second = ref None in
  Uam.register_handler a1 1 (fun am ~src:_ tk ~args:_ ~payload:_ ->
      let tk = Option.get tk in
      Uam.reply am tk ~handler:2 ();
      second := Some (try Uam.reply am tk ~handler:2 (); false with Invalid_argument _ -> true));
  Uam.register_handler a0 2 (fun _ ~src:_ _ ~args:_ ~payload:_ -> ());
  serve c a1;
  ignore
    (Proc.spawn c.sim (fun () ->
         Uam.request a0 ~dst:1 ~handler:1 ();
         Uam.poll_until a0 (fun () -> !second <> None)));
  Sim.run ~until:(Sim.sec 1) c.sim;
  checkb "second reply rejected" true (!second = Some true)

let test_request_unconnected () =
  let c = Cluster.create ~hosts:3 () in
  let a0 = Uam.create (Cluster.node c 0).unet ~rank:0 ~nodes:3 in
  let _a1 = Uam.create (Cluster.node c 1).unet ~rank:1 ~nodes:3 in
  ignore
    (Proc.spawn c.sim (fun () ->
         checkb "unconnected peer rejected" true
           (try
              Uam.request a0 ~dst:2 ~handler:1 ();
              false
            with Invalid_argument _ -> true)));
  Sim.run c.sim

let test_oversized_payload_rejected () =
  let c, a0, _a1 = pair () in
  ignore
    (Proc.spawn c.sim (fun () ->
         checkb "payload above the buffer size rejected" true
           (try
              Uam.request a0 ~dst:1 ~handler:1 ~payload:(Buf.alloc 5_000) ();
              false
            with Invalid_argument _ -> true)));
  Sim.run c.sim

let test_window_bounds_outstanding () =
  (* the peer never polls: after w unacknowledged requests the sender must
     block in the window check *)
  let c, a0, _a1 = pair () in
  Uam.register_handler a0 2 (fun _ ~src:_ _ ~args:_ ~payload:_ -> ());
  let sent = ref 0 in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to 20 do
           Uam.request a0 ~dst:1 ~handler:1 ();
           incr sent
         done));
  (* bounded run: the blocked sender keeps retransmitting, never advances *)
  Sim.run ~until:(Sim.ms 100) c.sim;
  checki "exactly w requests escaped" (Uam.default_config.Uam.window) !sent

let test_flush_and_barrier_ready () =
  let c, a0, a1 = pair () in
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args:_ ~payload:_ -> ());
  serve c a1;
  let flushed = ref false in
  ignore
    (Proc.spawn c.sim (fun () ->
         Uam.request a0 ~dst:1 ~handler:1 ();
         checkb "not yet acknowledged" false (Uam.barrier_ready a0 ~dst:1);
         Uam.flush a0;
         checkb "acknowledged after flush" true (Uam.barrier_ready a0 ~dst:1);
         flushed := true));
  Sim.run ~until:(Sim.sec 1) c.sim;
  checkb "flush completed" true !flushed

(* reliability: random cell loss on every link; all requests must arrive
   exactly once, in order *)
let test_reliable_in_order_under_loss () =
  let config = { Uam.default_config with rto = Sim.ms 2 } in
  let c, a0, a1 = pair ~config () in
  Lossy.set (Atm.Network.uplink c.net ~host:0) ~seed:11 ~p:0.08;
  Lossy.set (Atm.Network.uplink c.net ~host:1) ~seed:12 ~p:0.08;
  let received = ref [] in
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args ~payload:_ ->
      received := args.(0) :: !received);
  serve c a1;
  let n = 150 in
  let done_ = ref false in
  ignore
    (Proc.spawn c.sim (fun () ->
         for i = 1 to n do
           Uam.request a0 ~dst:1 ~handler:1 ~args:[| i |] ()
         done;
         Uam.flush a0;
         done_ := true));
  Sim.run ~until:(Sim.sec 20) c.sim;
  checkb "sender finished" true !done_;
  check
    (Alcotest.list Alcotest.int)
    "exactly once, in order"
    (List.init n (fun i -> i + 1))
    (List.rev !received);
  checkb "loss actually happened (retransmissions)" true
    (Uam.retransmissions a0 > 0)

let test_duplicates_dropped_under_loss () =
  let config = { Uam.default_config with rto = Sim.ms 2 } in
  let c, a0, a1 = pair ~config () in
  (* lose acks: host1 -> host0 *)
  Lossy.set (Atm.Network.uplink c.net ~host:1) ~seed:4 ~p:0.3;
  let count = ref 0 in
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args:_ ~payload:_ -> incr count);
  serve c a1;
  ignore
    (Proc.spawn c.sim (fun () ->
         for i = 1 to 30 do
           Uam.request a0 ~dst:1 ~handler:1 ~args:[| i |] ()
         done;
         Uam.flush a0));
  Sim.run ~until:(Sim.sec 20) c.sim;
  checki "handler ran exactly once per request" 30 !count;
  checkb "duplicates were seen and dropped" true (Uam.duplicates_dropped a1 > 0)

(* --- Xfer ----------------------------------------------------------- *)

let xfer_pair () =
  let c, a0, a1 = pair () in
  let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
  (c, a0, a1, x0, x1)

let test_store_roundtrip () =
  let c, _a0, a1, x0, x1 = xfer_pair () in
  let region = Bytes.create 10_000 in
  Uam.Xfer.register_region x1 ~id:3 region;
  let data = Bytes.init 9_000 (fun i -> Char.chr (i mod 251)) in
  serve c a1;
  let done_ = ref false in
  ignore
    (Proc.spawn c.sim (fun () ->
         Uam.Xfer.store_sync x0 ~dst:1 ~region:3 ~offset:500 data;
         done_ := true));
  Sim.run ~until:(Sim.sec 5) c.sim;
  checkb "completed" true !done_;
  check Alcotest.bytes "multi-chunk store landed at the offset" data
    (Bytes.sub region 500 9_000)

let test_get_roundtrip () =
  let c, _a0, a1, x0, x1 = xfer_pair () in
  let region = Bytes.init 10_000 (fun i -> Char.chr ((i * 13) mod 256)) in
  Uam.Xfer.register_region x1 ~id:3 region;
  serve c a1;
  let got = ref Bytes.empty in
  ignore
    (Proc.spawn c.sim (fun () ->
         got := Uam.Xfer.get x0 ~dst:1 ~region:3 ~offset:100 ~len:9_000));
  Sim.run ~until:(Sim.sec 5) c.sim;
  check Alcotest.bytes "multi-chunk get" (Bytes.sub region 100 9_000) !got

let test_get_async_overlap () =
  let c, _a0, a1, x0, x1 = xfer_pair () in
  let region = Bytes.init 8_192 (fun i -> Char.chr (i mod 256)) in
  Uam.Xfer.register_region x1 ~id:3 region;
  serve c a1;
  let ok = ref false in
  ignore
    (Proc.spawn c.sim (fun () ->
         let h1 = Uam.Xfer.get_async x0 ~dst:1 ~region:3 ~offset:0 ~len:4_000 in
         let h2 = Uam.Xfer.get_async x0 ~dst:1 ~region:3 ~offset:4_000 ~len:4_000 in
         let b1 = Uam.Xfer.await x0 h1 in
         let b2 = Uam.Xfer.await x0 h2 in
         ok :=
           Bytes.equal b1 (Bytes.sub region 0 4_000)
           && Bytes.equal b2 (Bytes.sub region 4_000 4_000)));
  Sim.run ~until:(Sim.sec 5) c.sim;
  checkb "overlapped gets both correct" true !ok

let test_unknown_region () =
  let c, _a0, _a1, x0, _x1 = xfer_pair () in
  ignore
    (Proc.spawn c.sim (fun () ->
         checkb "local region lookup fails loudly" true
           (try
              ignore (Uam.Xfer.region x0 ~id:99);
              false
            with Invalid_argument _ -> true)));
  Sim.run c.sim

let test_store_under_loss () =
  (* 5% cell loss on ~88-cell chunks leaves each go-back-N attempt ≈1%
     likely to land, so cap the exponential backoff low to keep the
     many retries inside the 30 s horizon *)
  let config =
    { Uam.default_config with rto = Sim.ms 2; rto_max = Sim.ms 10 }
  in
  let c = Cluster.create () in
  let a0 = Uam.create ~config (Cluster.node c 0).unet ~rank:0 ~nodes:2 in
  let a1 = Uam.create ~config (Cluster.node c 1).unet ~rank:1 ~nodes:2 in
  Uam.connect a0 a1;
  let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
  Lossy.set (Atm.Network.uplink c.net ~host:0) ~seed:9 ~p:0.05;
  let region = Bytes.create 20_000 in
  Uam.Xfer.register_region x1 ~id:3 region;
  let data = Bytes.init 20_000 (fun i -> Char.chr ((i * 7) mod 256)) in
  serve c a1;
  let done_ = ref false in
  ignore
    (Proc.spawn c.sim (fun () ->
         Uam.Xfer.store_sync x0 ~dst:1 ~region:3 ~offset:0 data;
         done_ := true));
  Sim.run ~until:(Sim.sec 30) c.sim;
  checkb "completed despite loss" true !done_;
  check Alcotest.bytes "data intact despite loss" data region;
  checkb "recovery used retransmissions" true (Uam.retransmissions a0 > 0)

let test_uam_single_cell_rtt () =
  (* the 71 us headline: single-cell requests with a small payload *)
  let c, a0, a1 = pair () in
  Uam.register_handler a1 1 (fun am ~src:_ tk ~args:_ ~payload ->
      Uam.reply am (Option.get tk) ~handler:2 ~payload ());
  let got = ref 0 in
  Uam.register_handler a0 2 (fun _ ~src:_ _ ~args:_ ~payload:_ -> incr got);
  serve c a1;
  let sum = ref 0. in
  let iters = 20 in
  ignore
    (Proc.spawn c.sim (fun () ->
         for i = 1 to iters do
           let t0 = Sim.now c.sim in
           Uam.request a0 ~dst:1 ~handler:1 ~payload:(Buf.alloc 16) ();
           Uam.poll_until a0 (fun () -> !got >= i);
           sum := !sum +. Sim.to_us (Sim.now c.sim - t0)
         done));
  Sim.run ~until:(Sim.sec 2) c.sim;
  let rtt = !sum /. float_of_int iters in
  checkb
    (Printf.sprintf "UAM single-cell RTT %.1f us within 10%% of 71" rtt)
    true
    (Float.abs (rtt -. 71.) <= 7.1)

let prop_uam_payload_roundtrip =
  (* arbitrary payload sizes (inline and buffered paths) cross intact *)
  QCheck.Test.make ~name:"UAM payloads of any size arrive intact" ~count:12
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 0 4_160))
    (fun sizes ->
      let c, a0, a1 = pair () in
      let received = ref [] in
      Uam.register_handler a1 1 (fun _ ~src:_ _ ~args:_ ~payload ->
          received := Buf.to_bytes ~layer:"test" payload :: !received);
      serve c a1;
      let sent = List.map (fun n -> Bytes.init n (fun i -> Char.chr ((i * 3) mod 256))) sizes in
      ignore
        (Proc.spawn c.sim (fun () ->
             List.iter
               (fun p ->
                 Uam.request a0 ~dst:1 ~handler:1 ~payload:(Buf.of_bytes p) ())
               sent;
             Uam.flush a0));
      Sim.run ~until:(Sim.sec 10) c.sim;
      List.length !received = List.length sent
      && List.for_all2 Bytes.equal sent (List.rev !received))

let test_bidirectional_requests () =
  (* both sides fire requests at each other concurrently; handlers on each
     side must run exactly once per request with no interference *)
  let c, a0, a1 = pair () in
  let at0 = ref 0 and at1 = ref 0 in
  Uam.register_handler a0 1 (fun _ ~src:_ _ ~args:_ ~payload:_ -> incr at0);
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args:_ ~payload:_ -> incr at1);
  let n = 50 in
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to n do
           Uam.request a0 ~dst:1 ~handler:1 ()
         done;
         Uam.flush a0;
         Uam.poll_until a0 (fun () -> !at0 >= n)));
  ignore
    (Proc.spawn c.sim (fun () ->
         for _ = 1 to n do
           Uam.request a1 ~dst:0 ~handler:1 ()
         done;
         Uam.flush a1;
         Uam.poll_until a1 (fun () -> !at1 >= n)));
  Sim.run ~until:(Sim.sec 10) c.sim;
  checki "all delivered to node 1" n !at1;
  checki "all delivered to node 0" n !at0

let test_eight_node_all_to_all () =
  let c = Cluster.create ~hosts:8 () in
  let ams =
    Array.init 8 (fun r -> Uam.create (Cluster.node c r).unet ~rank:r ~nodes:8)
  in
  Uam.connect_all ams;
  let counts = Array.make 8 0 in
  Array.iteri
    (fun me am ->
      Uam.register_handler am 1 (fun _ ~src:_ _ ~args:_ ~payload:_ ->
          counts.(me) <- counts.(me) + 1))
    ams;
  Array.iteri
    (fun me am ->
      ignore
        (Proc.spawn c.sim (fun () ->
             for dst = 0 to 7 do
               if dst <> me then
                 for _ = 1 to 5 do
                   Uam.request am ~dst ~handler:1 ()
                 done
             done;
             Uam.flush am;
             (* keep serving peers until everyone is done *)
             Uam.poll_until am (fun () -> counts.(me) >= 35))))
    ams;
  Sim.run ~until:(Sim.sec 30) c.sim;
  Array.iteri
    (fun i n -> checki (Printf.sprintf "node %d got 35" i) 35 n)
    counts

let test_sequence_wraparound () =
  (* push the 16-bit sequence space past its wrap: ordering and
     exactly-once delivery must survive 0xffff -> 0 *)
  let c, a0, a1 = pair () in
  let n = 70_000 in
  let received = ref 0 and in_order = ref true and expect = ref 0 in
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args ~payload:_ ->
      if args.(0) <> !expect land 0xFFFFF then in_order := false;
      incr expect;
      incr received);
  serve c a1;
  ignore
    (Proc.spawn c.sim (fun () ->
         for i = 0 to n - 1 do
           Uam.request a0 ~dst:1 ~handler:1 ~args:[| i land 0xFFFFF |] ()
         done;
         Uam.flush a0));
  Sim.run ~until:(Sim.sec 60) c.sim;
  checki "all delivered across the wrap" n !received;
  checkb "strictly in order" true !in_order;
  checki "no duplicates" 0 (Uam.duplicates_dropped a1)

let () =
  Alcotest.run "uam"
    [
      ( "request-reply",
        [
          Alcotest.test_case "roundtrip" `Quick test_request_reply_roundtrip;
          Alcotest.test_case "reply twice rejected" `Quick test_reply_twice_rejected;
          Alcotest.test_case "unconnected peer" `Quick test_request_unconnected;
          Alcotest.test_case "oversized payload" `Quick test_oversized_payload_rejected;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "window bounds outstanding" `Quick test_window_bounds_outstanding;
          Alcotest.test_case "flush / barrier_ready" `Quick test_flush_and_barrier_ready;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "in-order exactly-once under loss" `Quick
            test_reliable_in_order_under_loss;
          Alcotest.test_case "duplicates dropped" `Quick test_duplicates_dropped_under_loss;
        ] );
      ( "xfer",
        [
          Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "get roundtrip" `Quick test_get_roundtrip;
          Alcotest.test_case "async gets overlap" `Quick test_get_async_overlap;
          Alcotest.test_case "unknown region" `Quick test_unknown_region;
          Alcotest.test_case "store under loss" `Quick test_store_under_loss;
        ] );
      ( "calibration",
        [ Alcotest.test_case "71 us single-cell RTT" `Quick test_uam_single_cell_rtt ] );
      ( "stress",
        [
          QCheck_alcotest.to_alcotest prop_uam_payload_roundtrip;
          Alcotest.test_case "bidirectional requests" `Quick test_bidirectional_requests;
          Alcotest.test_case "8-node all-to-all" `Quick test_eight_node_all_to_all;
          Alcotest.test_case "16-bit sequence wraparound" `Slow test_sequence_wraparound;
        ] );
    ]
