(* The benchmark harness: regenerates every table and figure of the paper
   (the simulated experiments of lib/experiments) with their PASS/FAIL
   claim checks, and writes one metrics dump and one snapshot per
   experiment for `benchdiff` to gate against bench/baseline. Wall-clock
   performance of the simulator itself is bench/e2e's unetbench.

   Set UNET_BENCH_FULL=1 for full-size experiment runs (several minutes);
   the default quick sizes reproduce the same shapes in well under a
   minute. *)

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
  Format.printf "@.done.@."
