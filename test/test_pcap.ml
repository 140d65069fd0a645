(* Tests for Engine.Pcapng: byte-exact golden block layout (Section
   Header, Interface Description with if_name/if_tsresol options,
   Enhanced Packet) and monotone virtual timestamps over a fig3-sized
   simulated run. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* the writer is little-endian throughout *)
let golden =
  String.concat ""
    [
      (* Section Header Block: type, len 28, byte-order magic, v1.0,
         section length -1, trailing len *)
      "\x0a\x0d\x0d\x0a";
      "\x1c\x00\x00\x00";
      "\x4d\x3c\x2b\x1a";
      "\x01\x00";
      "\x00\x00";
      "\xff\xff\xff\xff\xff\xff\xff\xff";
      "\x1c\x00\x00\x00";
      (* Interface Description Block: len 40, LINKTYPE_SUNATM (123),
         snaplen 0, if_name "atm0", if_tsresol 9 (ns), end of options *)
      "\x01\x00\x00\x00";
      "\x28\x00\x00\x00";
      "\x7b\x00";
      "\x00\x00";
      "\x00\x00\x00\x00";
      "\x02\x00\x04\x00atm0";
      "\x09\x00\x01\x00\x09\x00\x00\x00";
      "\x00\x00\x00\x00";
      "\x28\x00\x00\x00";
      (* Enhanced Packet Block: len 36, iface 0, 64-bit ns timestamp
         split hi/lo, captured = original = 4, "ping", trailing len *)
      "\x06\x00\x00\x00";
      "\x24\x00\x00\x00";
      "\x00\x00\x00\x00";
      "\x04\x03\x02\x01";
      "\x08\x07\x06\x05";
      "\x04\x00\x00\x00";
      "\x04\x00\x00\x00";
      "ping";
      "\x24\x00\x00\x00";
    ]

let test_golden_layout () =
  Pcapng.start ();
  let ifc = Pcapng.iface ~name:"atm0" ~linktype:Pcapng.linktype_sunatm in
  checki "first interface gets id 0" 0 ifc;
  let sim = Sim.create () in
  ignore
    (Sim.schedule_at sim 0x0102030405060708 (fun () ->
         Pcapng.capture ~iface:ifc "ping"));
  Sim.run sim;
  let got = Pcapng.to_string () in
  checki "capture length" (String.length golden) (String.length got);
  check Alcotest.string "byte-exact block layout" golden got;
  Pcapng.stop ();
  Pcapng.clear ()

let test_iface_idempotent () =
  Pcapng.start ();
  let a = Pcapng.iface ~name:"atm0" ~linktype:Pcapng.linktype_sunatm in
  let b = Pcapng.iface ~name:"eth0" ~linktype:Pcapng.linktype_ethernet in
  let a' = Pcapng.iface ~name:"atm0" ~linktype:Pcapng.linktype_sunatm in
  checki "same (name, linktype) is one interface" a a';
  checkb "distinct interfaces get distinct ids" true (a <> b);
  Pcapng.stop ();
  Pcapng.clear ()

let test_disabled_captures_nothing () =
  Pcapng.stop ();
  Pcapng.clear ();
  let ifc = Pcapng.iface ~name:"atm0" ~linktype:Pcapng.linktype_sunatm in
  Pcapng.capture ~iface:ifc "dropped";
  checki "no packets while disabled" 0 (Pcapng.packet_count ());
  Pcapng.clear ()

(* a fig3-sized run: multi-cell raw round trips plus UAM round trips, all
   captured; virtual timestamps must be monotone in capture order *)
let test_monotone_timestamps_over_run () =
  Pcapng.start ();
  ignore (Experiments.Common.raw_rtt ~iters:5 ~size:1024 ());
  ignore (Experiments.Common.uam_rtt ~iters:5 ~size:16 ());
  checkb "cells were captured" true (Pcapng.packet_count () > 100);
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  (* each experiment restarts the virtual clock, but within itself the
     capture order must follow virtual time; check per-run segments *)
  let times = Pcapng.packet_times () in
  let segments =
    List.fold_left
      (fun segs t ->
        match segs with
        | (last :: _ as seg) :: rest when t >= last -> (t :: seg) :: rest
        | _ -> [ t ] :: segs)
      [] times
  in
  checkb "timestamps are monotone within each run" true
    (List.length segments <= 2
    && List.for_all (fun seg -> monotone (List.rev seg)) segments);
  (* and the serialized file stays parseable: every block length is
     self-consistent *)
  let s = Pcapng.to_string () in
  let u32 off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)
  in
  let rec walk off n =
    if off >= String.length s then n
    else
      let len = u32 (off + 4) in
      checki "trailing length matches leading" len (u32 (off + len - 4));
      walk (off + len) (n + 1)
  in
  let blocks = walk 0 0 in
  checki "one block per packet plus SHB and IDBs" blocks
    (Pcapng.packet_count () + 3);
  Pcapng.stop ();
  Pcapng.clear ()

(* --- reading a capture back ------------------------------------------ *)

let le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* The interface names in file order, and each packet's interface name. *)
let read_capture s =
  let rec walk off names pkts =
    if off >= String.length s then
      (Array.of_list (List.rev names), List.rev pkts)
    else
      let len = le32 s (off + 4) in
      match le32 s off with
      | 1 ->
          (* the if_name option is the first, at offset 16 *)
          let n = Char.code s.[off + 18] lor (Char.code s.[off + 19] lsl 8) in
          walk (off + len) (String.sub s (off + 20) n :: names) pkts
      | 6 -> walk (off + len) names (le32 s (off + 8) :: pkts)
      | _ -> walk (off + len) names pkts
  in
  let names, pkts = walk 0 [] [] in
  (names, List.map (fun i -> names.(i)) pkts)

(* The capture [f] leaves, taken on trains or forced onto the per-cell
   path. *)
let captured ~forced f =
  Trainmode.force_per_cell forced;
  Pcapng.start ();
  Fun.protect
    ~finally:(fun () ->
      Trainmode.force_per_cell false;
      Pcapng.stop ();
      Pcapng.clear ())
  @@ fun () ->
  f ();
  Pcapng.to_string ()

(* A refusal-heavy stream with no fault spec: the NI retries every cell its
   TX FIFO refuses, and the capture holds each accepted cell once, on its
   host's interface, and nothing on the "fault" interface. *)
let test_refusals_captured_once () =
  List.iter
    (fun forced ->
      Metrics.reset ();
      let stream () =
        ignore (Experiments.Common.raw_bandwidth ~count:60 ~size:5056 ())
      in
      let names, pkts = read_capture (captured ~forced stream) in
      let mode = if forced then "per-cell" else "trains" in
      checkb (mode ^ ": no fault interface") false (Array.mem "fault" names);
      let uplink what h =
        Metrics.counter_value what [ ("dir", "up"); ("host", string_of_int h) ]
        |> Option.value ~default:0
      in
      checkb (mode ^ ": the TX FIFO refused cells") true
        (uplink "atm_link_cells_dropped_total" 0 > 0);
      List.iter
        (fun h ->
          let name = Printf.sprintf "atm%d" h in
          checki
            (Printf.sprintf "%s: %s holds each cell sent once" mode name)
            (uplink "atm_link_cells_sent_total" h)
            (List.length (List.filter (String.equal name) pkts)))
        [ 0; 1 ])
    [ true; false ]

(* The fig3, fig4 and table3 quick captures are the same bytes whether the
   cells rode trains or the per-cell path, hold nothing on the "fault"
   interface, and attaching one costs the train run no event. *)
let test_trains_write_per_cell_bytes () =
  List.iter
    (fun name ->
      let e = Option.get (Experiments.Registry.find name) in
      let run () = ignore (e.run ~quick:true) in
      let fired f =
        Metrics.reset ();
        let fired0 = Sim.events_fired () in
        f ();
        Sim.events_fired () - fired0
      in
      let flags_off = fired run in
      let trains = ref "" in
      let with_pcap = fired (fun () -> trains := captured ~forced:false run) in
      let per_cell = captured ~forced:true run in
      checki (name ^ ": a capture fires the flags-off events") flags_off
        with_pcap;
      checkb (name ^ ": trains write the per-cell file") true
        (String.equal !trains per_cell);
      checkb (name ^ ": no fault interface") false
        (Array.mem "fault" (fst (read_capture per_cell))))
    [ "fig3"; "fig4"; "table3" ]

let () =
  Alcotest.run "pcap"
    [
      ( "pcapng",
        [
          Alcotest.test_case "golden byte layout" `Quick test_golden_layout;
          Alcotest.test_case "interface registry idempotent" `Quick
            test_iface_idempotent;
          Alcotest.test_case "disabled captures nothing" `Quick
            test_disabled_captures_nothing;
          Alcotest.test_case "monotone timestamps over a fig3-sized run"
            `Quick test_monotone_timestamps_over_run;
          Alcotest.test_case "refused sends captured once" `Quick
            test_refusals_captured_once;
          Alcotest.test_case "trains write the per-cell file" `Slow
            test_trains_write_per_cell_bytes;
        ] );
    ]
