(* Tests for the Split-C layer: the machine-model transports, the runtime's
   global operations on both transports, and the seven benchmarks'
   correctness at small scale. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
module R = Splitc.Runtime

let cm5_transports ?(nodes = 4) () =
  let sim = Sim.create () in
  Splitc.Machine_model.transports
    (Splitc.Machine_model.create sim ~nodes Splitc.Machine_model.cm5)

let uam_transports ?(nodes = 4) () =
  let c = Cluster.create ~hosts:nodes () in
  let ams =
    Array.init nodes (fun r -> Uam.create (Cluster.node c r).unet ~rank:r ~nodes)
  in
  Uam.connect_all ams;
  Array.map Splitc.Transport.of_uam ams

let both name f =
  [
    Alcotest.test_case (name ^ " [cm5 model]") `Quick (fun () ->
        f (cm5_transports ()));
    Alcotest.test_case (name ^ " [uam cluster]") `Quick (fun () ->
        f (uam_transports ()));
  ]

(* --- machine model specifics ----------------------------------------- *)

let test_model_overhead_charged () =
  let sim = Sim.create () in
  let f = Splitc.Machine_model.create sim ~nodes:2 Splitc.Machine_model.meiko_cs2 in
  let tps = Splitc.Machine_model.transports f in
  let send_time = ref 0 in
  tps.(1).Splitc.Transport.register 1 (fun ~src:_ ~reply:_ ~args:_ ~payload:_ -> ());
  ignore
    (Proc.spawn sim (fun () ->
         let t0 = Sim.now sim in
         tps.(0).Splitc.Transport.request ~dst:1 ~handler:1 ();
         send_time := Sim.now sim - t0));
  ignore (Proc.spawn sim (fun () -> tps.(1).Splitc.Transport.flush ()));
  Sim.run ~until:(Sim.sec 1) sim;
  checki "sender charged o = 11 us" 11_000 !send_time

let test_model_rtt_matches_spec () =
  let sim = Sim.create () in
  let f = Splitc.Machine_model.create sim ~nodes:2 Splitc.Machine_model.cm5 in
  let tps = Splitc.Machine_model.transports f in
  let done_at = ref 0 in
  tps.(1).Splitc.Transport.register 1 (fun ~src:_ ~reply ~args:_ ~payload:_ ->
      (Option.get reply) ~handler:2 ());
  let got = ref false in
  tps.(0).Splitc.Transport.register 2 (fun ~src:_ ~reply:_ ~args:_ ~payload:_ ->
      got := true);
  ignore
    (Proc.spawn sim (fun () ->
         tps.(0).Splitc.Transport.request ~dst:1 ~handler:1 ();
         tps.(0).Splitc.Transport.poll_until (fun () -> !got);
         done_at := Sim.now sim));
  ignore
    (Proc.spawn sim (fun () ->
         tps.(1).Splitc.Transport.poll_until (fun () -> false)));
  Sim.run ~until:(Sim.sec 1) sim;
  (* request/reply includes 4x o(3us) + 2x net latency(6us each) = 24 us
     on the CM-5 model: sanity band around the 12 us network RTT + overheads *)
  checkb
    (Printf.sprintf "CM-5 model RTT = %d ns plausible" !done_at)
    true
    (!done_at >= 12_000 && !done_at <= 40_000)

(* --- runtime collectives --------------------------------------------- *)

let test_barrier tps =
  let n = Array.length tps in
  let after = R.run tps (fun ctx ->
      (* stagger arrival; everyone must leave together *)
      if R.rank ctx > 0 then
        Proc.sleep (R.sim ctx) ~time:(Sim.us (100 * R.rank ctx));
      R.barrier ctx;
      Sim.now (R.sim ctx))
  in
  let latest_arrival = Array.fold_left max 0 after in
  Array.iter
    (fun t -> checkb "no one left before the last arrived" true (t >= latest_arrival - 1_000_000))
    after;
  checki "all ranks returned" n (Array.length after)

let test_reduce tps =
  let out = R.run tps (fun ctx ->
      let r = R.rank ctx in
      let s = R.reduce ctx R.Int R.Sum (r + 1) in
      let mn = R.reduce ctx R.Int R.Min (r + 1) in
      let mx = R.reduce ctx R.Int R.Max (r + 1) in
      let f = R.reduce ctx R.Float R.Sum (float_of_int r +. 0.5) in
      let fmn = R.reduce ctx R.Float R.Min (float_of_int r -. 0.5) in
      let fmx = R.reduce ctx R.Float R.Max (float_of_int r -. 0.5) in
      (s, mn, mx, f, fmn, fmx))
  in
  let n = Array.length tps in
  Array.iter
    (fun (s, mn, mx, f, fmn, fmx) ->
      checki "sum" (n * (n + 1) / 2) s;
      checki "min" 1 mn;
      checki "max" n mx;
      check (Alcotest.float 1e-9) "float sum"
        (float_of_int (n * (n - 1) / 2) +. (0.5 *. float_of_int n))
        f;
      check (Alcotest.float 0.) "float min" (-0.5) fmn;
      check (Alcotest.float 0.) "float max" (float_of_int n -. 1.5) fmx)
    out

let test_broadcast tps =
  let out = R.run tps (fun ctx ->
      let v =
        if R.rank ctx = 0 then [| 3; 1; 4; 1; 5 |] else Array.make 5 0
      in
      R.broadcast_ints ctx ~root:0 v)
  in
  Array.iter
    (fun got -> check (Alcotest.array Alcotest.int) "broadcast" [| 3; 1; 4; 1; 5 |] got)
    out

let test_read_write tps =
  let out = R.run tps (fun ctx ->
      let n = R.nprocs ctx in
      let r = R.rank ctx in
      R.register ctx R.Int ~id:1 (Array.make n (-1));
      R.register ctx R.Float ~id:2 (Array.make n 0.);
      R.barrier ctx;
      (* everyone writes its rank into everyone's slot r *)
      for p = 0 to n - 1 do
        R.write ctx R.Int ~proc:p ~arr:1 ~idx:r r;
        R.write ctx R.Float ~proc:p ~arr:2 ~idx:r (float_of_int r *. 2.)
      done;
      R.barrier ctx;
      (* read the peer's own slot back through the network *)
      let next = (r + 1) mod n in
      let v = R.read ctx R.Int ~proc:next ~arr:1 ~idx:next in
      let f = R.read ctx R.Float ~proc:next ~arr:2 ~idx:next in
      (v, f))
  in
  Array.iteri
    (fun r (v, f) ->
      let next = (r + 1) mod Array.length out in
      checki "read_int" next v;
      check (Alcotest.float 1e-9) "read_float" (float_of_int next *. 2.) f)
    out

let test_store_pair_and_append tps =
  let out = R.run tps (fun ctx ->
      let n = R.nprocs ctx in
      let r = R.rank ctx in
      R.register_append_buffer ctx ~id:1;
      R.barrier ctx;
      (* everyone sends (rank, rank*10) to everyone *)
      for p = 0 to n - 1 do
        R.store_pair ctx ~proc:p ~buf:1 r (r * 10)
      done;
      R.all_store_sync ctx;
      let got = R.append_buffer_contents ctx ~id:1 in
      Array.sort compare got;
      got)
  in
  let n = Array.length out in
  let expect =
    List.concat_map (fun r -> [ r; r * 10 ]) (List.init n Fun.id)
    |> List.sort compare |> Array.of_list
  in
  Array.iter
    (fun got -> check (Alcotest.array Alcotest.int) "pairs from everyone" expect got)
    out

let test_bulk_ints tps =
  let out = R.run tps (fun ctx ->
      let r = R.rank ctx in
      let n = R.nprocs ctx in
      R.register ctx R.Int ~id:1 (Array.make 2_000 0);
      R.barrier ctx;
      (* chunked store (2000 elements = multiple 520-element chunks on UAM) *)
      let data = Array.init 2_000 (fun i -> (r * 10_000) + i) in
      R.store ctx R.Int ~proc:((r + 1) mod n) ~arr:1 ~pos:0 data;
      R.all_store_sync ctx;
      let from = (r + n - 1) mod n in
      R.get ctx R.Int ~proc:(R.rank ctx) ~arr:1 ~pos:0 ~len:2_000
      |> Array.for_all2 (fun a b -> a = b)
           (Array.init 2_000 (fun i -> (from * 10_000) + i)))
  in
  Array.iter (fun ok -> checkb "bulk store+get intact" true ok) out

let test_bulk_floats tps =
  let out = R.run tps (fun ctx ->
      let r = R.rank ctx in
      let n = R.nprocs ctx in
      R.register ctx R.Float ~id:1 (Array.make 1_000 0.);
      R.barrier ctx;
      let data = Array.init 1_000 (fun i -> float_of_int ((r * 1_000) + i) /. 3.) in
      R.store ctx R.Float ~proc:((r + 1) mod n) ~arr:1 ~pos:0 data;
      R.all_store_sync ctx;
      let got = R.get ctx R.Float ~proc:((r + 1) mod n) ~arr:1 ~pos:0 ~len:1_000 in
      Array.for_all2 ( = ) data got)
  in
  Array.iter (fun ok -> checkb "remote float gets see the stored data" true ok) out

let test_async_get tps =
  let out = R.run tps (fun ctx ->
      let n = R.nprocs ctx in
      let r = R.rank ctx in
      R.register ctx R.Int ~id:1 (Array.init 600 (fun i -> (r * 1_000) + i));
      R.barrier ctx;
      let next = (r + 1) mod n in
      let h1 = R.get_async ctx R.Int ~proc:next ~arr:1 ~pos:0 ~len:300 in
      let h2 = R.get_async ctx R.Int ~proc:next ~arr:1 ~pos:300 ~len:300 in
      let a = R.await ctx h1 and b = R.await ctx h2 in
      Array.append a b
      |> Array.for_all2 ( = ) (Array.init 600 (fun i -> (next * 1_000) + i)))
  in
  Array.iter (fun ok -> checkb "split-phase gets" true ok) out

(* --- benchmarks (small sizes, correctness checked internally) -------- *)

let bench_checked name f =
  [
    Alcotest.test_case (name ^ " [cm5 model]") `Quick (fun () ->
        let r = f (cm5_transports ~nodes:8 ()) in
        checkb "verified" true r.Splitc.Bench_common.checked;
        checkb "nonzero time" true (r.Splitc.Bench_common.total_us > 0.));
    Alcotest.test_case (name ^ " [uam cluster]") `Slow (fun () ->
        let r = f (uam_transports ~nodes:8 ()) in
        checkb "verified" true r.Splitc.Bench_common.checked);
  ]

let test_comm_accounting () =
  (* a pure-computation program reports zero comm; a chatty one reports
     nonzero comm below total *)
  let tps = cm5_transports () in
  let out = R.run tps (fun ctx ->
      R.charge ctx ~cycles:100_000;
      let comp_only = R.comm_us ctx in
      R.barrier ctx;
      for _ = 1 to 10 do
        ignore (R.reduce ctx R.Int R.Sum 1)
      done;
      (comp_only, R.comm_us ctx, R.elapsed_us ctx))
  in
  Array.iter
    (fun (c0, c1, total) ->
      check (Alcotest.float 1e-9) "no comm before any call" 0. c0;
      checkb "comm grew" true (c1 > 0.);
      checkb "comm below total" true (c1 <= total))
    out

(* --- wire format -------------------------------------------------------- *)

(* cm5-model transports that log every request and reply they carry, as
   "kind src>dst h<handler> [args] <payload hex>" in send order; a 16-byte
   payload limit makes two-element chunks, so bulk stores and gets split *)
let recording_transports ~nodes =
  let log = ref [] in
  let line kind ~src ~dst handler args payload =
    let hex =
      String.concat ""
        (List.init (Buf.length payload) (fun i ->
             Printf.sprintf "%02x" (Buf.get_uint8 payload i)))
    in
    log :=
      Printf.sprintf "%s %d>%d h%d [%s]%s" kind src dst handler
        (String.concat ";" (Array.to_list (Array.map string_of_int args)))
        (if hex = "" then "" else " " ^ hex)
      :: !log
  in
  let wrap (tp : Splitc.Transport.t) =
    let me = tp.Splitc.Transport.rank in
    {
      tp with
      Splitc.Transport.max_payload = 16;
      register =
        (fun idx h ->
          tp.Splitc.Transport.register idx (fun ~src ~reply ~args ~payload ->
              let reply =
                Option.map
                  (fun (reply : Splitc.Transport.reply_fn) ~handler
                       ?(args = [||]) ?(payload = Buf.empty) () ->
                    line "rep" ~src:me ~dst:src handler args payload;
                    reply ~handler ~args ~payload ())
                  reply
              in
              h ~src ~reply ~args ~payload));
      request =
        (fun ~dst ~handler ?(args = [||]) ?(payload = Buf.empty) () ->
          line "req" ~src:me ~dst handler args payload;
          tp.Splitc.Transport.request ~dst ~handler ~args ~payload ());
    }
  in
  (Array.map wrap (cm5_transports ~nodes ()), fun () -> List.rev !log)

(* every runtime operation on both element kinds, remote from rank 0 to
   rank 1 (the collectives involve everyone) *)
let wire_program ctx =
  let r = R.rank ctx in
  R.register ctx R.Int ~id:1 (Array.init 6 (fun i -> (100 * r) + i));
  R.register ctx R.Float ~id:2
    (Array.init 6 (fun i -> float_of_int ((100 * r) + i) /. 4.));
  R.register_append_buffer ctx ~id:3;
  R.barrier ctx;
  if r = 0 then begin
    let a = R.read ctx R.Int ~proc:1 ~arr:1 ~idx:2 in
    let b = R.read ctx R.Float ~proc:1 ~arr:2 ~idx:3 in
    R.write ctx R.Int ~proc:1 ~arr:1 ~idx:5 (a + 1_000);
    R.write ctx R.Float ~proc:1 ~arr:2 ~idx:5 (b *. 3.);
    R.store ctx R.Int ~proc:1 ~arr:1 ~pos:0 [| -1; -2; -3 |];
    R.store ctx R.Float ~proc:1 ~arr:2 ~pos:0 [| 0.5; -1.25; 1e300 |];
    R.store_pair ctx ~proc:1 ~buf:3 7 8
  end;
  R.all_store_sync ctx;
  if r = 0 then begin
    ignore (R.get ctx R.Int ~proc:1 ~arr:1 ~pos:1 ~len:3 : int array);
    ignore (R.get ctx R.Float ~proc:1 ~arr:2 ~pos:2 ~len:3 : float array);
    let pi = R.get_async ctx R.Int ~proc:1 ~arr:1 ~pos:4 ~len:2 in
    let pf = R.get_async ctx R.Float ~proc:1 ~arr:2 ~pos:4 ~len:2 in
    ignore (R.await ctx pi : int array);
    ignore (R.await ctx pf : float array)
  end;
  let ops = R.[ Sum; Min; Max ] in
  List.iter (fun op -> ignore (R.reduce ctx R.Int op (r + 1) : int)) ops;
  List.iter
    (fun op -> ignore (R.reduce ctx R.Float op (float_of_int r +. 0.1) : float))
    ops;
  ignore
    (R.broadcast_ints ctx ~root:1 (if r = 1 then [| 4; 2 |] else [| 0; 0 |]))

(* the runtime's wire format: handler ids, argument layouts and 8-byte
   little-endian payloads, in send order; any difference is a protocol
   change *)
let wire_expected =
  [
    "req 1>0 h211 [1]";
    "req 2>0 h211 [1]";
    "req 0>1 h212 [1]";
    "req 0>2 h212 [1]";
    "req 1>0 h211 [2]";
    "req 2>0 h211 [2]";
    "req 0>1 h212 [2]";
    "req 0>2 h212 [2]";
    "req 0>1 h200 [1;2;0]";
    "req 1>0 h211 [3]";
    "req 2>0 h211 [3]";
    "rep 1>0 h201 [0] 6600000000000000";
    "req 0>1 h218 [2;3;1]";
    "rep 1>0 h219 [1] 0000000000c03940";
    "req 0>1 h202 [1;5;2] 4e04000000000000";
    "rep 1>0 h203 [2]";
    "req 0>1 h220 [2;5;3] 0000000000505340";
    "rep 1>0 h203 [3]";
    "req 0>1 h205 [1;0] fffffffffffffffffeffffffffffffff";
    "req 0>1 h205 [1;2] fdffffffffffffff";
    "req 0>1 h206 [2;0] 000000000000e03f000000000000f4bf";
    "req 0>1 h206 [2;2] 9c7500883ce4377e";
    "req 0>1 h204 [3;7;8]";
    "req 0>1 h212 [3]";
    "req 0>2 h212 [3]";
    "req 0>1 h207 [65538;1;4;0]";
    "req 0>1 h207 [65537;3;4;2]";
    "req 1>0 h213 [1;0] 0200000000000000";
    "req 2>0 h213 [1;0] 0300000000000000";
    "rep 1>0 h208 [4;0] fefffffffffffffffdffffffffffffff";
    "rep 1>0 h208 [4;2] 6700000000000000";
    "req 0>1 h209 [131074;2;5;0]";
    "req 0>1 h209 [131073;4;5;2]";
    "rep 1>0 h210 [5;0] 9c7500883ce4377e0000000000c03940";
    "rep 1>0 h210 [5;2] 0000000000003a40";
    "req 0>1 h207 [65538;4;6;0]";
    "req 0>1 h209 [131074;4;7;0]";
    "rep 1>0 h208 [6;0] 68000000000000004e04000000000000";
    "rep 1>0 h210 [7;0] 0000000000003a400000000000505340";
    "req 0>1 h214 [1] 0600000000000000";
    "req 0>2 h214 [1] 0600000000000000";
    "req 1>0 h213 [2;1] 0200000000000000";
    "req 2>0 h213 [2;1] 0300000000000000";
    "req 0>1 h214 [2] 0100000000000000";
    "req 0>2 h214 [2] 0100000000000000";
    "req 1>0 h213 [3;2] 0200000000000000";
    "req 2>0 h213 [3;2] 0300000000000000";
    "req 0>1 h214 [3] 0300000000000000";
    "req 0>2 h214 [3] 0300000000000000";
    "req 1>0 h215 [4;0] 9a9999999999f13f";
    "req 2>0 h215 [4;0] cdcccccccccc0040";
    "req 0>1 h216 [4] 6766666666660a40";
    "req 0>2 h216 [4] 6766666666660a40";
    "req 1>0 h215 [5;1] 9a9999999999f13f";
    "req 2>0 h215 [5;1] cdcccccccccc0040";
    "req 0>1 h216 [5] 9a9999999999b93f";
    "req 0>2 h216 [5] 9a9999999999b93f";
    "req 1>0 h215 [6;2] 9a9999999999f13f";
    "req 2>0 h215 [6;2] cdcccccccccc0040";
    "req 0>1 h216 [6] cdcccccccccc0040";
    "req 0>2 h216 [6] cdcccccccccc0040";
    "req 1>0 h217 [1] 04000000000000000200000000000000";
    "req 1>2 h217 [1] 04000000000000000200000000000000";
  ]

let test_wire_format () =
  let tps, recording = recording_transports ~nodes:3 in
  ignore (R.run tps wire_program);
  check Alcotest.(list string) "handler ids, args and payloads" wire_expected
    (recording ())

let () =
  Alcotest.run "splitc"
    [
      ( "machine-model",
        [
          Alcotest.test_case "overhead charged" `Quick test_model_overhead_charged;
          Alcotest.test_case "rtt plausible" `Quick test_model_rtt_matches_spec;
        ] );
      ("barrier", both "barrier" test_barrier);
      ("reduce", both "reduce" test_reduce);
      ("broadcast", both "broadcast" test_broadcast);
      ("global-rw", both "read/write" test_read_write);
      ("store-pair", both "store_pair/append" test_store_pair_and_append);
      ("bulk-ints", both "bulk ints" test_bulk_ints);
      ("bulk-floats", both "bulk floats" test_bulk_floats);
      ("async-get", both "async get" test_async_get);
      ( "wire-format",
        [
          Alcotest.test_case "every operation, both kinds" `Quick
            test_wire_format;
        ] );
      ( "accounting",
        [ Alcotest.test_case "comm vs comp" `Quick test_comm_accounting ] );
      ( "bench-mm",
        bench_checked "matrix multiply" (fun tps ->
            Splitc.Bench_mm.run ~params:{ Splitc.Bench_mm.g = 4; b = 8 } tps) );
      ( "bench-ssort-small",
        bench_checked "sample sort small" (fun tps ->
            Splitc.Bench_sample_sort.run ~n:4_096
              ~variant:Splitc.Bench_sample_sort.Small tps) );
      ( "bench-ssort-bulk",
        bench_checked "sample sort bulk" (fun tps ->
            Splitc.Bench_sample_sort.run ~n:4_096
              ~variant:Splitc.Bench_sample_sort.Bulk tps) );
      ( "bench-radix-small",
        bench_checked "radix sort small" (fun tps ->
            Splitc.Bench_radix_sort.run ~n:4_096
              ~variant:Splitc.Bench_radix_sort.Small tps) );
      ( "bench-radix-bulk",
        bench_checked "radix sort bulk" (fun tps ->
            Splitc.Bench_radix_sort.run ~n:4_096
              ~variant:Splitc.Bench_radix_sort.Bulk tps) );
      ( "bench-cc",
        bench_checked "connected components" (fun tps ->
            Splitc.Bench_cc.run ~n:1_024 tps) );
      ( "bench-cg",
        bench_checked "conjugate gradient" (fun tps ->
            Splitc.Bench_cg.run ~k:32 ~iters:30 tps) );
    ]
