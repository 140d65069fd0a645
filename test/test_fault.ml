(* Tests for the deterministic fault-injection layer and the bugs it
   exposed: spec parsing, per-site stream determinism, honest Bernoulli
   frequencies, the timer-driven UAM retransmission (a stalled sender now
   recovers; a dead peer no longer livelocks the simulation), accounted
   receive-path drops, AAL5 discard accounting, and end-to-end payload
   integrity of go-back-N and TCP under injected faults. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let counter name labels =
  Option.value ~default:0 (Metrics.counter_value name labels)

(* --- spec parsing --------------------------------------------------- *)

let test_parse_ok () =
  match Fault.parse "loss=0.01,seed=7,at=up+switch" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      checki "seed" 7 s.Fault.seed;
      check (Alcotest.float 1e-9) "loss" 0.01 s.Fault.loss;
      checkb "sites" true (s.Fault.sites = [ Fault.Link_up; Fault.Switch ])

let test_parse_aliases () =
  (match Fault.parse "p=0.5,at=link" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check (Alcotest.float 1e-9) "p aliases loss" 0.5 s.Fault.loss;
      checkb "link = up+down" true
        (s.Fault.sites = [ Fault.Link_up; Fault.Link_down ]));
  match Fault.parse "burst_loss=0.9" with
  | Error e -> Alcotest.fail e
  | Ok s -> (
      match s.Fault.burst with
      | Some b -> check (Alcotest.float 1e-9) "burst loss" 0.9 b.Fault.burst_loss
      | None -> Alcotest.fail "burst_loss should enable the burst model")

let test_parse_errors () =
  let bad str =
    match Fault.parse str with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" str
  in
  bad "bogus=1";
  bad "loss=2";
  bad "loss=nope";
  bad "at=moon";
  bad "reorder_span=0";
  bad "loss"

(* --- per-site stream determinism ------------------------------------ *)

let rich_spec =
  match
    Fault.parse
      "seed=99,loss=0.05,corrupt=0.05,dup=0.05,reorder=0.1,reorder_span=4,\
       burst_enter=0.05,burst_exit=0.2,burst_loss=0.8"
  with
  | Ok s -> s
  | Error e -> failwith e

let decisions spec site n =
  let f = Fault.create ~site spec in
  List.init n (fun _ -> Fault.decide f)

let test_decide_deterministic () =
  let a = decisions rich_spec "link.up.0" 2_000 in
  let b = decisions rich_spec "link.up.0" 2_000 in
  checkb "same spec + same site replays identically" true (a = b);
  let other = decisions rich_spec "link.up.1" 2_000 in
  checkb "distinct sites draw independent streams" true (a <> other);
  let non_pass = List.filter (fun d -> d <> Fault.Pass) a in
  checkb "the rich spec actually injects" true (List.length non_pass > 50)

let test_ni_draws_deterministic () =
  let spec =
    match Fault.parse "seed=3,dma_stall=0.2,dma_stall_ns=5000,rx_overrun=0.1,at=ni" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let seq site =
    let f = Fault.create ~site spec in
    List.init 500 (fun _ -> (Fault.dma_stall f, Fault.rx_overrun f))
  in
  checkb "NI draws replay from the seed" true (seq "ni.0" = seq "ni.0");
  checkb "stalls take the configured value" true
    (List.exists (fun (s, _) -> s = 5_000) (seq "ni.0"))

let test_bernoulli_frequency () =
  let spec = { Fault.none with Fault.loss = 0.1 } in
  let f = Fault.create ~site:"freq" spec in
  let n = 50_000 in
  let drops = ref 0 in
  for _ = 1 to n do
    if Fault.decide f = Fault.Drop then incr drops
  done;
  (* mean 5000, sd ~67: a 5-sigma band is deterministic for a fixed seed
     anyway, but keeps the test honest if the generator changes *)
  checkb "drop frequency near the configured probability" true
    (abs (!drops - (n / 10)) < 340);
  checki "injector counted every drop" !drops (Fault.injected f)

(* --- UAM: timer-driven retransmission ------------------------------- *)

let uam_pair ?config () =
  let c = Cluster.create () in
  let a0 = Uam.create ?config (Cluster.node c 0).Cluster.unet ~rank:0 ~nodes:2 in
  let a1 = Uam.create ?config (Cluster.node c 1).Cluster.unet ~rank:1 ~nodes:2 in
  Uam.connect a0 a1;
  (c, a0, a1)

let serve c am =
  ignore
    (Proc.spawn c.Cluster.sim (fun () -> Uam.poll_until am (fun () -> false)))

(* The stalled-retransmit bug: a sender that queues a message and never
   polls again used to retransmit only from inside the recv polling loops,
   so a lost message was lost forever. The timeout is now a scheduled Sim
   event: the message must arrive with no sender-side polling at all. *)
let test_stalled_sender_recovers () =
  let config = { Uam.default_config with rto = Sim.ms 2 } in
  let c, a0, a1 = uam_pair ~config () in
  let up = Atm.Network.uplink c.Cluster.net ~host:0 in
  (* lose everything for the first millisecond, then heal the link *)
  Lossy.set up ~seed:5 ~p:1.0;
  ignore
    (Sim.schedule c.Cluster.sim ~delay:(Sim.ms 1) (fun () ->
         Lossy.set up ~seed:5 ~p:0.0));
  let got = ref 0 in
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args:_ ~payload:_ -> incr got);
  serve c a1;
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         Uam.request a0 ~dst:1 ~handler:1 ();
         (* fire and forget: the sender never polls again *)
         Proc.sleep c.Cluster.sim ~time:(Sim.ms 100)));
  Sim.run ~until:(Sim.sec 2) c.Cluster.sim;
  checki "request delivered without sender polling" 1 !got;
  checkb "delivery came from a timer-driven retransmission" true
    (Uam.retransmissions a0 >= 1)

(* Exponential backoff gives up after [max_timeouts] consecutive unanswered
   timeouts: against a black-hole peer the timer must stop re-arming (or an
   unbounded [Sim.run] would never return) after exactly 6 retries. *)
let test_backoff_gives_up () =
  let config =
    { Uam.default_config with rto = Sim.ms 1; rto_max = Sim.ms 8 }
  in
  let c, a0, a1 = uam_pair ~config () in
  ignore a1;
  Lossy.set (Atm.Network.uplink c.Cluster.net ~host:0) ~seed:5 ~p:1.0;
  ignore
    (Proc.spawn c.Cluster.sim (fun () -> Uam.request a0 ~dst:1 ~handler:1 ()));
  Sim.run ~until:(Sim.sec 30) c.Cluster.sim;
  checki "exactly max_timeouts timer retransmissions" 6
    (Uam.retransmissions a0);
  checki "the event queue drained (no timer livelock)" 0
    (Sim.pending c.Cluster.sim)

(* --- flight recorder / stall watchdog ------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_recorder ~deadline f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "unetsim-pm-test" in
  Recorder.start ~dir ~deadline ();
  Fun.protect ~finally:(fun () -> Recorder.stop ()) f

(* A black-holed sender past the give-up point must fire the watchdog
   exactly once, and the bundle must hold the stalled endpoint's rings. *)
let test_watchdog_black_hole () =
  with_recorder ~deadline:(Sim.ms 200) @@ fun () ->
  let config =
    { Uam.default_config with rto = Sim.ms 1; rto_max = Sim.ms 8 }
  in
  let c, a0, a1 = uam_pair ~config () in
  ignore a1;
  Lossy.set (Atm.Network.uplink c.Cluster.net ~host:0) ~seed:5 ~p:1.0;
  ignore
    (Proc.spawn c.Cluster.sim (fun () -> Uam.request a0 ~dst:1 ~handler:1 ()));
  Sim.run ~until:(Sim.sec 5) c.Cluster.sim;
  checki "exactly one post-mortem" 1 (Recorder.trigger_count ());
  (match Recorder.last_trigger () with
  | None -> Alcotest.fail "trigger fired but left no info"
  | Some tr ->
      checkb "reason names the stalled flow" true
        (contains tr.Recorder.tr_reason "flow uam.0->1"));
  match List.assoc_opt "snapshots" (Recorder.last_bundle ()) with
  | Some (Json.Obj kvs) ->
      let has_rings = function
        | Json.Obj fields ->
            List.mem_assoc "tx_ring" fields
            && List.mem_assoc "rx_ring" fields
            && List.mem_assoc "free_ring" fields
        | _ -> false
      in
      checkb "bundle snapshots the sender's endpoint rings" true
        (List.exists
           (fun (k, v) -> contains k "unet.host0" && has_rings v)
           kvs)
  | _ -> Alcotest.fail "bundle carries no snapshots object"

(* A whole registered figure under total cell loss, as the CLI runs it
   with [--fault loss=1,seed=1,at=link --postmortem DIR]: the watchdog
   fires once and leaves a bundle on disk whose manifest gives a reason. *)
let test_black_holed_figure () =
  let dir = Filename.temp_file "fig3-pm" "" in
  Sys.remove dir;
  (match Fault.parse "loss=1,seed=1,at=link" with
  | Ok spec -> Fault.configure (Some spec)
  | Error msg -> Alcotest.fail msg);
  Recorder.start ~dir ();
  Fun.protect
    ~finally:(fun () ->
      Recorder.stop ();
      Fault.configure None)
    (fun () ->
      let fig3 = Option.get (Experiments.Registry.find "fig3") in
      ignore (fig3.run ~quick:true : Experiments.Registry.outcome));
  checki "exactly one post-mortem" 1 (Recorder.trigger_count ());
  let manifest = Filename.concat dir "manifest.json" in
  checkb "manifest.json on disk" true (Sys.file_exists manifest);
  let reason = Json.member "reason" (Json.of_file manifest) in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match reason with
  | Some (Json.Str r) -> checkb "the manifest gives a reason" true (r <> "")
  | _ -> Alcotest.fail "manifest.json has no reason"

(* The benign end-of-run shape — the last message was delivered but its
   ack is still pending when the run ends — must NOT trigger: delivery on
   the flow after the pending epoch began exonerates it. *)
let test_watchdog_clean_run () =
  with_recorder ~deadline:(Sim.ms 200) @@ fun () ->
  let config = { Uam.default_config with rto = Sim.ms 1 } in
  let c, a0, a1 = uam_pair ~config () in
  let got = ref 0 in
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args:_ ~payload:_ -> incr got);
  serve c a1;
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         Uam.request a0 ~dst:1 ~handler:1 ();
         Uam.poll_until a0 (fun () -> !got >= 1)));
  Sim.run ~until:(Sim.sec 5) c.Cluster.sim;
  checki "request arrived" 1 !got;
  checki "no post-mortem on a clean run" 0 (Recorder.trigger_count ())

(* Retransmissions mint child spans of the original message, so a retried
   transfer stays one connected trace. *)
let test_retransmit_parentage () =
  Span.start ();
  Fun.protect ~finally:(fun () ->
      Span.stop ();
      Span.clear ())
  @@ fun () ->
  let config = { Uam.default_config with rto = Sim.ms 2 } in
  let c, a0, a1 = uam_pair ~config () in
  Lossy.set (Atm.Network.uplink c.Cluster.net ~host:0) ~seed:9 ~p:0.2;
  let got = ref 0 in
  Uam.register_handler a1 1 (fun _ ~src:_ _ ~args:_ ~payload:_ -> incr got);
  serve c a1;
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         for i = 1 to 20 do
           Uam.request a0 ~dst:1 ~handler:1 ();
           Uam.poll_until a0 (fun () -> !got >= i)
         done));
  Sim.run ~until:(Sim.sec 10) c.Cluster.sim;
  checkb "messages went through despite loss" true (!got >= 20);
  let retries =
    List.filter (fun (s : Span.span) -> s.name = "uam_retx") (Span.spans ())
  in
  checkb "lossy run minted retransmission spans" true (retries <> []);
  checkb "every retransmission span has a parent" true
    (List.for_all (fun (s : Span.span) -> s.parent <> None) retries)

(* --- accounted receive-path drops ----------------------------------- *)

let test_rx_full_counted () =
  let c = Cluster.create () in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let ep0, _ = Cluster.simple_endpoint n0 in
  let ep1, _ = Cluster.simple_endpoint ~rx_slots:4 n1 in
  let ch0, _ = Unet.connect_pair (n0.Cluster.unet, ep0) (n1.Cluster.unet, ep1) in
  let before = counter "unet_rx_dropped_total" [ ("reason", "rx_full") ] in
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         for _ = 1 to 12 do
           match
             Unet.send n0.Cluster.unet ep0
               (Unet.Desc.tx ~chan:ch0 (Unet.Desc.Inline (Buf.alloc 16)))
           with
           | Ok () -> ()
           | Error Unet.Queue_full -> Proc.sleep c.Cluster.sim ~time:(Sim.us 50)
           | Error e -> Fmt.failwith "send: %a" Unet.pp_error e
         done));
  (* the receiver never polls: the 4-slot rx ring must overflow *)
  Sim.run ~until:(Sim.sec 1) c.Cluster.sim;
  checkb "rx-ring overflow counted in unet_rx_dropped_total" true
    (counter "unet_rx_dropped_total" [ ("reason", "rx_full") ] > before)

let test_unknown_channel_counted () =
  let m = Unet.Mux.create () in
  let before = counter "unet_rx_dropped_total" [ ("reason", "unknown_channel") ] in
  checkb "unknown tag rejected" true
    (Unet.Mux.deliver m ~rx_vci:77 (Buf.of_string "stray") = None);
  checki "unknown channel counted in unet_rx_dropped_total" (before + 1)
    (counter "unet_rx_dropped_total" [ ("reason", "unknown_channel") ])

(* --- AAL5 discard accounting and state reset ------------------------ *)

let test_aal5_discard_metrics () =
  let r = Atm.Aal5.Reassembler.create () in
  let payload = Buf.of_bytes (Bytes.init 200 (fun i -> Char.chr (i land 0xff))) in
  let before = counter "aal5_pdus_discarded_total" [ ("reason", "crc_mismatch") ] in
  (* drop the first cell: the PDU completes short and fails its CRC *)
  Array.iteri
    (fun i c -> if i > 0 then ignore (Atm.Aal5.Reassembler.push r c))
    (Atm.Aal5.segment ~vci:1 payload);
  checki "crc discard counted" (before + 1)
    (counter "aal5_pdus_discarded_total" [ ("reason", "crc_mismatch") ]);
  checki "error counter advanced" 1 (Atm.Aal5.Reassembler.errors r);
  (* per-VCI state was reset: the next healthy PDU reassembles cleanly *)
  let out = ref None in
  Array.iter
    (fun c ->
      match Atm.Aal5.Reassembler.push r c with
      | Some (Ok b) -> out := Some b
      | Some (Error e) -> Alcotest.failf "unexpected error %a" Atm.Aal5.pp_error e
      | None -> ())
    (Atm.Aal5.segment ~vci:1 payload);
  match !out with
  | Some b ->
      check Alcotest.bytes "healthy PDU intact after discard"
        (Buf.to_bytes ~layer:"test" payload)
        (Buf.to_bytes ~layer:"test" b)
  | None -> Alcotest.fail "healthy PDU did not complete"

let test_aal5_too_long_counted () =
  let r = Atm.Aal5.Reassembler.create () in
  let before = counter "aal5_pdus_discarded_total" [ ("reason", "too_long") ] in
  let cell =
    { (Atm.Aal5.segment ~vci:1 (Buf.alloc 100)).(0) with Atm.Cell.eop = false }
  in
  let errored = ref false in
  (* never send EOP: the reassembler must cap the PDU, not grow forever *)
  for _ = 1 to 1_400 do
    match Atm.Aal5.Reassembler.push r cell with
    | Some (Error Atm.Aal5.Too_long) -> errored := true
    | _ -> ()
  done;
  checkb "oversize PDU discarded" true !errored;
  checkb "too_long discard counted" true
    (counter "aal5_pdus_discarded_total" [ ("reason", "too_long") ] > before)

(* --- end-to-end integrity under injected faults --------------------- *)

let with_fault spec f =
  (match Fault.parse spec with
  | Ok s -> Fault.configure (Some s)
  | Error e -> failwith e);
  Fun.protect ~finally:(fun () -> Fault.configure None) f

(* go-back-N survives duplication and bounded reordering: duplicates are
   dropped by the sequence check, gaps recovered by the sender's timeout *)
let test_uam_store_dup_reorder () =
  (* an 88-cell chunk PDU survives per-cell perturbation p with
     probability (1-p)^88, so keep the rates low enough that whole
     chunks still get through and recovery converges *)
  with_fault "seed=11,dup=0.01,reorder=0.01,reorder_span=2,at=up" @@ fun () ->
  let config =
    { Uam.default_config with rto = Sim.ms 2; rto_max = Sim.ms 16 }
  in
  let c, a0, a1 = uam_pair ~config () in
  let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
  let total = 32 * 1024 in
  let region = Bytes.make total '\000' in
  Uam.Xfer.register_region x1 ~id:1 region;
  let data = Bytes.init total (fun i -> Char.chr ((i * 37 + 5) land 0xff)) in
  serve c a1;
  let done_ = ref false in
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         Uam.Xfer.store_sync x0 ~dst:1 ~region:1 ~offset:0 data;
         done_ := true));
  Sim.run ~until:(Sim.sec 30) c.Cluster.sim;
  checkb "store completed under dup+reorder" true !done_;
  check Alcotest.bytes "payload byte-identical" data region;
  checkb "receiver discarded duplicate or out-of-order arrivals" true
    (Uam.duplicates_dropped a1 > 0)

let test_tcp_intact_under_loss rate () =
  with_fault (Printf.sprintf "seed=42,loss=%g,at=up" rate) @@ fun () ->
  let c = Cluster.create () in
  let open Ipstack in
  let ifa, ifb =
    Iface.unet_pair ~mtu:9_188 (Cluster.node c 0).Cluster.unet
      (Cluster.node c 1).Cluster.unet
  in
  let cfg = { (Tcp.unet_config ~window:(32 * 1024) ()) with mss = 2_048 } in
  let sa = Tcp.attach (Ipv4.attach ifa ~addr:0) cfg in
  let sb = Tcp.attach (Ipv4.attach ifb ~addr:1) cfg in
  let total = 128 * 1024 in
  let data = Bytes.init total (fun i -> Char.chr ((i * 61 + 3) land 0xff)) in
  let rx = Buffer.create total in
  let listener = Tcp.listen sb ~port:80 in
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         let conn = Tcp.accept listener in
         let rec loop () =
           let chunk = Tcp.recv conn ~max:65536 in
           if Bytes.length chunk > 0 then begin
             Buffer.add_bytes rx chunk;
             loop ()
           end
         in
         loop ()));
  ignore
    (Proc.spawn c.Cluster.sim (fun () ->
         let conn = Tcp.connect sa ~dst:1 ~dst_port:80 () in
         let off = ref 0 in
         while !off < total do
           let len = min 8_192 (total - !off) in
           Tcp.send conn (Bytes.sub data !off len);
           off := !off + len
         done;
         Tcp.close conn));
  Sim.run ~until:(Sim.sec 120) c.Cluster.sim;
  checki "every byte delivered" total (Buffer.length rx);
  checkb "TCP payload byte-identical under loss" true
    (String.equal (Buffer.contents rx) (Bytes.to_string data))

(* A whole registered figure under 0.5% link cell loss, as the CLI runs it
   with [--fault loss=0.005,seed=1234,at=link --paths FILE]: it runs to
   completion, the injections and the recovery show in the registry, and
   each path record rides its own PDU's EOP cell, so cells lost inside a
   link cannot stretch another PDU's first hop (about 110 us here; pairing
   records by arrival order read 6.4e8 ns). *)
let test_lossy_figure () =
  let sum name =
    String.split_on_char '\n' (Metrics.to_prometheus_string ())
    |> List.fold_left
         (fun acc line ->
           match String.split_on_char ' ' line with
           | [ series; v ]
             when String.starts_with ~prefix:(name ^ "{") series
                  || series = name ->
               acc + int_of_string v
           | _ -> acc)
         0
  in
  Metrics.reset ();
  Pathrec.start ();
  Pathrec.clear ();
  Fun.protect ~finally:(fun () ->
      Pathrec.stop ();
      Pathrec.clear ())
  @@ fun () ->
  with_fault "loss=0.005,seed=1234,at=link" (fun () ->
      let fig3 = Option.get (Experiments.Registry.find "fig3") in
      ignore (fig3.run ~quick:true : Experiments.Registry.outcome));
  Metrics.flush ();
  let faults = sum "fault_injected_total"
  and retransmissions = sum "uam_retransmissions_total" in
  checkb (Printf.sprintf "%d faults injected" faults) true (faults > 0);
  checkb
    (Printf.sprintf "%d UAM retransmissions" retransmissions)
    true (retransmissions > 0);
  match Pathrec.hop_quantile ~hop:0 0.99 with
  | None -> Alcotest.fail "no path record settled"
  | Some p99 ->
      checkb
        (Printf.sprintf "hop 0 p99 %.0f ns below 1 ms" p99)
        true (p99 < 1e6)

(* The generator before its state was unboxed: splitmix64 over a boxed
   [int64] field, kept here as the reference every seeded fault stream
   was captured against. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let create seed =
    { state = Int64.mul (Int64.of_int (seed + 1)) 0xBF58476D1CE4E5B9L }

  let next_state t =
    t.state <- Int64.add t.state golden;
    t.state

  let mix z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int64 t = mix (next_state t)
  let split t = { state = int64 t }
  let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

  let int t bound =
    if bound <= 1 lsl 30 then bits t mod bound
    else
      Int64.to_int
        (Int64.rem
           (Int64.shift_right_logical (int64 t) 1)
           (Int64.of_int bound))

  let float t bound =
    let x = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
    bound *. (x /. 9007199254740992.0)

  let bernoulli t ~p = float t 1.0 < p
end

(* One draw of each kind per op; [Split] continues on the split-off
   stream, so splits nest. *)
type draw = I64 | Int of int | Float | Bern of float | Split

let draw_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return I64);
        (2, map (fun b -> Int b) (int_range 1 1_000));
        (1, map (fun b -> Int b) (int_range ((1 lsl 30) + 1) max_int));
        (2, return Float);
        (2, map (fun p -> Bern p) (float_range 0. 1.));
        (1, return Split);
      ])

let prop_rng_matches_boxed =
  QCheck.Test.make ~name:"unboxed Rng draws the boxed streams" ~count:300
    QCheck.(
      pair small_int
        (make ~print:(fun l -> string_of_int (List.length l) ^ " draws")
           Gen.(list_size (int_range 1 200) draw_gen)))
    (fun (seed, draws) ->
      let rec go a b = function
        | [] -> true
        | d :: rest -> (
            match d with
            | I64 -> Rng.int64 a = Boxed_rng.int64 b && go a b rest
            | Int bound -> Rng.int a bound = Boxed_rng.int b bound && go a b rest
            | Float ->
                Int64.bits_of_float (Rng.float a 3.5)
                = Int64.bits_of_float (Boxed_rng.float b 3.5)
                && go a b rest
            | Bern p ->
                Rng.bernoulli a ~p = Boxed_rng.bernoulli b ~p && go a b rest
            | Split -> go (Rng.split a) (Boxed_rng.split b) rest)
      in
      go (Rng.create seed) (Boxed_rng.create seed) draws)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parse ok" `Quick test_parse_ok;
          Alcotest.test_case "parse aliases" `Quick test_parse_aliases;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "decide replays from seed" `Quick
            test_decide_deterministic;
          Alcotest.test_case "NI draws replay from seed" `Quick
            test_ni_draws_deterministic;
          Alcotest.test_case "honest Bernoulli frequency" `Quick
            test_bernoulli_frequency;
          QCheck_alcotest.to_alcotest prop_rng_matches_boxed;
        ] );
      ( "uam-timer",
        [
          Alcotest.test_case "stalled sender recovers" `Quick
            test_stalled_sender_recovers;
          Alcotest.test_case "backoff gives up against a black hole" `Quick
            test_backoff_gives_up;
          Alcotest.test_case "retransmissions are child spans" `Quick
            test_retransmit_parentage;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "black-holed sender fires one post-mortem"
            `Quick test_watchdog_black_hole;
          Alcotest.test_case "clean run never triggers" `Quick
            test_watchdog_clean_run;
          Alcotest.test_case "black-holed figure leaves a bundle" `Quick
            test_black_holed_figure;
        ] );
      ( "rx-drops",
        [
          Alcotest.test_case "rx-ring overflow counted" `Quick
            test_rx_full_counted;
          Alcotest.test_case "unknown channel counted" `Quick
            test_unknown_channel_counted;
        ] );
      ( "aal5",
        [
          Alcotest.test_case "crc discard counted, state reset" `Quick
            test_aal5_discard_metrics;
          Alcotest.test_case "oversize PDU counted" `Quick
            test_aal5_too_long_counted;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "store under dup+reorder" `Quick
            test_uam_store_dup_reorder;
          Alcotest.test_case "TCP intact at 0.1% loss" `Quick
            (test_tcp_intact_under_loss 0.001);
          Alcotest.test_case "TCP intact at 1% loss" `Quick
            (test_tcp_intact_under_loss 0.01);
          Alcotest.test_case "fig3 under 0.5% link loss" `Quick
            test_lossy_figure;
        ] );
    ]
