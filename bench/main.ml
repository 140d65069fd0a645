(* The benchmark harness:

   1. regenerates every table and figure of the paper (the simulated
      experiments of lib/experiments) — the rows/series the paper reports;
   2. runs one Bechamel wall-clock micro-benchmark per table/figure,
      measuring the hot simulation path that experiment exercises, so
      regressions in the simulator itself are visible.

   Set UNET_BENCH_FULL=1 for full-size experiment runs (several minutes);
   the default quick sizes reproduce the same shapes in well under a
   minute. *)

open Bechamel
open Toolkit

(* --- micro-benchmark workloads ------------------------------------- *)

let payload = Bytes.init 1_500 (fun i -> Char.chr (i mod 256))

(* table1: the SBA-100 does AAL5 CRC in software — CRC-32 over a 1500-byte
   buffer is its hot loop *)
let bench_crc () = ignore (Atm.Crc32.digest_bytes payload)

(* table2/fig5: the machine comparison stands on the event engine; one
   schedule+fire cycle is its unit of work *)
let bench_sim_events =
  let sim = Engine.Sim.create () in
  fun () ->
    for _ = 1 to 100 do
      ignore (Engine.Sim.schedule sim ~delay:1 (fun () -> ()))
    done;
    Engine.Sim.run sim

(* table3/fig3: every message crosses AAL5 segmentation + reassembly *)
let bench_aal5 =
  let r = Atm.Aal5.Reassembler.create () in
  fun () ->
    Array.iter
      (fun c -> ignore (Atm.Aal5.Reassembler.push r c))
      (Atm.Aal5.segment ~vci:1 (Engine.Buf.of_bytes payload))

(* fig4: the descriptor rings are the per-message fixed cost *)
let bench_ring =
  let ring = Unet.Ring.create ~capacity:64 in
  fun () ->
    for i = 0 to 31 do
      ignore (Unet.Ring.push ring i)
    done;
    for _ = 0 to 31 do
      ignore (Unet.Ring.pop ring)
    done

(* fig6/fig9: the IP suite checksums every packet *)
let bench_checksum () = ignore (Ipstack.Checksum.compute_bytes payload)

(* fig7: the kernel path's mbuf chain computation *)
let bench_mbuf () =
  for len = 1_000 to 1_031 do
    ignore (Host.Mbuf.handling_cost Host.Mbuf.sunos_config len)
  done

(* fig8: TCP streams ride the communication-segment blit path *)
let bench_segment =
  let seg = Unet.Segment.create ~size:16_384 in
  fun () ->
    Unet.Segment.write seg ~off:512 ~src:payload ~src_pos:0 ~len:1_500;
    ignore (Unet.Segment.read seg ~off:512 ~len:1_500)

(* fig4: a raw stream's uplink planner — a 64-cell train planned behind a
   committed 64-cell hop still draining (SBA-200 pacing, 1.8 us per cell,
   against a 140 Mb/s link's 3.03 us cell time), so every attempt queries
   the planned occupancy. Built on first use: a link registers metric
   families, which must not appear in the experiments' dumps. *)
let bench_link_plan () =
  let sim = Engine.Sim.create () in
  let link = Atm.Link.create sim ~bandwidth_mbps:140. ~propagation:500 () in
  Atm.Link.set_receiver link ignore;
  let gap = 1_800 in
  let plan first_attempt =
    match Atm.Link.plan_chain link ~n:64 ~first_attempt ~gap with
    | Some pl -> pl
    | None -> failwith "bench: link plan refused"
  in
  let busy = plan gap in
  ignore (Atm.Link.commit_plan link busy ~fold_sent:true);
  let next = (Atm.Link.plan_accepts busy).(63) + (2 * gap) in
  fun () -> ignore (plan next)

(* fig5: the deterministic RNG feeding every workload generator *)
let bench_rng =
  let rng = Engine.Rng.create 1 in
  fun () ->
    for _ = 1 to 100 do
      ignore (Engine.Rng.int rng 1_000_000)
    done

let micro_tests () =
  Test.make_grouped ~name:"simulator"
    [
      Test.make ~name:"table1:crc32-1500B" (Staged.stage bench_crc);
      Test.make ~name:"fig4:link-plan-64-busy"
        (Staged.stage (bench_link_plan ()));
      Test.make ~name:"table2:sim-100-events" (Staged.stage bench_sim_events);
      Test.make ~name:"table3:aal5-sar-1500B" (Staged.stage bench_aal5);
      Test.make ~name:"fig3:aal5-sar-1500B" (Staged.stage bench_aal5);
      Test.make ~name:"fig4:ring-32-ops" (Staged.stage bench_ring);
      Test.make ~name:"fig5:rng-100-draws" (Staged.stage bench_rng);
      Test.make ~name:"fig6:checksum-1500B" (Staged.stage bench_checksum);
      Test.make ~name:"fig7:mbuf-chains" (Staged.stage bench_mbuf);
      Test.make ~name:"fig8:segment-blit-1500B" (Staged.stage bench_segment);
      Test.make ~name:"fig9:checksum-1500B" (Staged.stage bench_checksum);
    ]

let run_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2_000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Format.printf
    "@.== Bechamel micro-benchmarks (wall-clock of the simulator) ==@.@.";
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> Format.printf "  (no monotonic clock results)@."
  | Some per_test ->
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test []
      |> List.sort compare
      |> List.iter (fun (name, ols) ->
             match Analyze.OLS.estimates ols with
             | Some [ ns ] -> Format.printf "  %-36s %12.1f ns/run@." name ns
             | _ -> Format.printf "  %-36s (no estimate)@." name)

(* --- experiment regeneration ---------------------------------------- *)

let metrics_dir = "bench-metrics"
let snapshot_dir = "bench-snapshots"

(* A machine-diffable snapshot of one experiment run: the virtual-time
   curves, the claim checks, and the zero-copy layer's copy totals. All
   values are deterministic given the simulator, so `benchdiff` can
   compare snapshots across commits with a tight tolerance. *)
let write_snapshot name quick (o : Experiments.Registry.outcome) =
  let open Engine.Json in
  let series =
    Obj
      (List.map
         (fun (label, pts) ->
           (label, List (List.map (fun (x, y) -> List [ Num x; Num y ]) pts)))
         o.Experiments.Registry.o_series)
  in
  let checks =
    Obj (List.map (fun (what, ok) -> (what, Bool ok)) o.o_checks)
  in
  (* experiments may declare extra gated members (direction-aware
     benchdiff rules, as BENCH_engine-throughput.json uses); experiments
     without any keep their historical snapshot shape byte-identical *)
  let members =
    List.map (fun (k, (v, _)) -> (k, Num v)) o.o_members
    @
    match o.o_members with
    | [] -> []
    | ms ->
        [
          ( "gates",
            Engine.Benchgate.gates_json (List.map (fun (k, (_, g)) -> (k, g)) ms)
          );
        ]
  in
  let path = Filename.concat snapshot_dir ("BENCH_" ^ name ^ ".json") in
  Engine.Json.write_file path
    (Obj
       ([
          ("name", Str name);
          ("quick", Bool quick);
          ("series", series);
          ("checks", checks);
          ("buf_copies_total", Num (float_of_int (Engine.Buf.copies_total ())));
          ( "buf_copy_bytes_total",
            Num (float_of_int (Engine.Buf.copy_bytes_total ())) );
        ]
       @ members));
  path

let run_experiments quick =
  (try Sys.mkdir metrics_dir 0o755 with Sys_error _ -> ());
  (try Sys.mkdir snapshot_dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun (e : Experiments.Registry.experiment) ->
      Format.printf "@.== %s: %s ==@.@." e.name e.description;
      Engine.Metrics.reset ();
      let o = e.run ~quick in
      o.Experiments.Registry.o_print ();
      List.iter
        (fun (what, ok) ->
          Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") what)
        o.o_checks;
      (* registry snapshot for this figure: counters since the reset above,
         including the per-layer buf_copies_total / buf_copy_bytes_total
         series of the zero-copy buffer layer *)
      let path = Filename.concat metrics_dir (e.name ^ ".prom") in
      Engine.Metrics.write_file path;
      let snap = write_snapshot e.name quick o in
      Format.printf "  metrics snapshot: %s (buf copies: %d)@." path
        (Engine.Buf.copies_total ());
      Format.printf "  bench snapshot: %s@." snap)
    Experiments.Registry.all

let () =
  let quick = Sys.getenv_opt "UNET_BENCH_FULL" = None in
  Format.printf "U-Net reproduction benchmark harness (%s mode)@."
    (if quick then "quick; set UNET_BENCH_FULL=1 for paper-scale sizes"
     else "full");
  run_experiments quick;
  run_micro ();
  Format.printf "@.done.@."
