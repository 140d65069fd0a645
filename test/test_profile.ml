(* Tests for the virtual-time attribution profiler and the timeseries
   sampler: frame nesting and charge attribution, disabled no-ops,
   underflow accounting, the per-host root-inclusive-equals-elapsed
   invariant over real experiment runs, event-driven sampling cadence,
   high-water folding into metrics gauges, and the gauge_fn bridge. *)

open Engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let with_profile f =
  Profile.(start Virtual);
  Fun.protect
    ~finally:(fun () ->
      Profile.(stop Virtual);
      Profile.(clear Virtual))
    f

(* --- frame mechanics ------------------------------------------------- *)

let test_nesting () =
  with_profile @@ fun () ->
  Profile.push "a";
  Profile.charge 10;
  Profile.push "b";
  Profile.charge ~frames:[ "x" ] 5;
  Profile.pop ();
  Profile.pop ();
  checki "stack balanced" 0 (Profile.depth ~host:0);
  checki "no unmatched pops" 0 Profile.(unmatched_pops Virtual);
  let s = Profile.(stacks Virtual) in
  checkb "charge lands in the open frame" true
    (List.assoc_opt [ "host0"; "a" ] s = Some 10);
  checkb "extra frames descend from the top" true
    (List.assoc_opt [ "host0"; "a"; "b"; "x" ] s = Some 5)

let test_charge_root () =
  with_profile @@ fun () ->
  Profile.push ~host:3 "app";
  (* device time must not nest under the open application frame *)
  Profile.charge_root ~host:3 ~frames:[ "ni"; "dev" ] 7;
  Profile.pop ~host:3 ();
  let s = Profile.(stacks Virtual) in
  checkb "charge_root ignores the stack" true
    (List.assoc_opt [ "host3"; "ni"; "dev" ] s = Some 7);
  checkb "nothing under the app frame" true
    (List.assoc_opt [ "host3"; "app"; "ni"; "dev" ] s = None)

(* A server charges its owner's profile at submission, under the host
   root; jobs without a stage are not profiled. *)
let test_server_charges () =
  with_profile @@ fun () ->
  let sim = Sim.create () in
  let server = Sync.Server.create ~owner:(3, [ "ni"; "dev" ]) sim in
  Profile.push ~host:3 "app";
  Sync.Server.submit server ~stage:"rx" ~cost:7 ignore;
  Sync.Server.submit server ~cost:5 ignore;
  Profile.pop ~host:3 ();
  Sim.run sim;
  let s = Profile.(stacks Virtual) in
  checkb "staged job charged under the owner" true
    (List.assoc_opt [ "host3"; "ni"; "dev"; "rx" ] s = Some 7);
  checki "only the staged job is profiled" 7
    (List.fold_left
       (fun acc (path, ns) -> if List.length path > 1 then acc + ns else acc)
       0 s);
  checkb "nothing under the app frame" true
    (List.for_all (fun (path, _) -> not (List.mem "app" path)) s)

let test_disabled_noop () =
  Profile.(stop Virtual);
  Profile.(clear Virtual);
  Profile.push "z";
  Profile.charge 100;
  Profile.pop ();
  Profile.pop ();
  checkb "nothing recorded while disabled" true (Profile.(stacks Virtual) = []);
  checki "pops while disabled are not underflows" 0
    Profile.(unmatched_pops Virtual)

let test_underflow_counted () =
  with_profile @@ fun () ->
  Profile.pop ();
  Profile.pop ();
  checki "underflows counted, never raised" 2 Profile.(unmatched_pops Virtual)

(* --- the root-inclusive invariant over real runs ---------------------- *)

(* Per host the exclusive times over all stacks must sum to the elapsed
   virtual time: the synthetic root absorbs idle/unattributed time, so the
   root's inclusive time is the run's virtual duration by construction. *)
let balanced_run name () =
  match Experiments.Registry.find name with
  | None -> Alcotest.failf "unknown experiment %s" name
  | Some e ->
      with_profile @@ fun () ->
      ignore (e.run ~quick:true);
      let hosts = Profile.hosts () in
      checkb "profiled at least one host" true (hosts <> []);
      List.iter
        (fun h ->
          checki (Printf.sprintf "host %d stack balanced" h) 0
            (Profile.depth ~host:h))
        hosts;
      checki "no unmatched pops" 0 Profile.(unmatched_pops Virtual);
      let el = Profile.(elapsed Virtual) in
      checkb "virtual time elapsed" true (el > 0);
      let sums = Hashtbl.create 8 in
      List.iter
        (fun (path, self) ->
          match path with
          | root :: _ ->
              Hashtbl.replace sums root
                ((Option.value ~default:0 (Hashtbl.find_opt sums root)) + self)
          | [] -> ())
        Profile.(stacks Virtual);
      checkb "every host produced stacks" true (Hashtbl.length sums > 0);
      Hashtbl.iter
        (fun root sum ->
          checki (Printf.sprintf "%s root inclusive = elapsed" root) el sum)
        sums

(* --- NI charges on the fast path -------------------------------------- *)

(* [Sync.Server] charges NI occupancy per batch and refunds what a split
   or a truncation hands back to the per-cell path, so neither the virtual
   clock nor the flight recorder pins: the run fires the flags-off events,
   and its folded profile equals the per-cell run's. Kernel TCP over ATM
   with 64 KB windows at 12 MB/s splits tx chains, and both splits and
   truncates paced rx batches, so each of the three refunds is exercised
   (dropping any one of them changes the folded string). *)
let test_batch_refunds () =
  let run () =
    let fired0 = Sim.events_fired () in
    ignore
      (Experiments.Common.(
         tcp_stream ~total:(320 * 1024) ~app_rate_mb:12.
           (tcp_bed ~window:(64 * 1024) Kernel_atm))
        : float);
    Sim.events_fired () - fired0
  in
  let flags_off = run () in
  let observed per_cell =
    Trainmode.force_per_cell per_cell;
    Recorder.start
      ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "refunds-pm")
      ();
    Fun.protect
      ~finally:(fun () ->
        Recorder.stop ();
        Trainmode.force_per_cell false)
      (fun () ->
        with_profile @@ fun () ->
        let events = run () in
        checki "no post-mortem" 0 (Recorder.trigger_count ());
        (events, Profile.(to_folded_string Virtual)))
  in
  let events, train = observed false in
  let per_cell_events, cell = observed true in
  checki "profile + recorder fire the flags-off events" flags_off events;
  checkb "the per-cell run fires more" true (per_cell_events > events);
  Alcotest.(check string) "folded profile equals the per-cell run's" cell train

(* The same three checks on [fig8 --quick]: with the profiler and the
   flight recorder on, the run fires the flags-off events, its folded
   profile equals the per-cell run's, and no post-mortem bundle is
   written. *)
let test_fig8_fast_path () =
  let fig8 = Option.get (Experiments.Registry.find "fig8") in
  let run () =
    let fired0 = Sim.events_fired () in
    ignore (fig8.run ~quick:true : Experiments.Registry.outcome);
    Sim.events_fired () - fired0
  in
  let flags_off = run () in
  let observed per_cell =
    let dir = Filename.temp_file "fig8-pm" "" in
    Sys.remove dir;
    Trainmode.force_per_cell per_cell;
    Recorder.start ~dir ();
    Fun.protect
      ~finally:(fun () ->
        Recorder.stop ();
        Trainmode.force_per_cell false)
      (fun () ->
        with_profile @@ fun () ->
        let events = run () in
        checki "no post-mortem trigger" 0 (Recorder.trigger_count ());
        checkb "no post-mortem bundle" false (Sys.file_exists dir);
        (events, Profile.(to_folded_string Virtual)))
  in
  let events, train = observed false in
  let _, cell = observed true in
  checki "profile + recorder fire the flags-off events" flags_off events;
  Alcotest.(check string) "folded profile equals the per-cell run's" cell train

(* --- timeseries sampling --------------------------------------------- *)

let with_timeseries f =
  Timeseries.clear ();
  Timeseries.start ();
  Fun.protect
    ~finally:(fun () ->
      Timeseries.stop ();
      Timeseries.clear ())
    f

let find_series name =
  List.find_opt
    (fun (s : Timeseries.series) -> s.s_name = name)
    (Timeseries.series ())

let test_event_driven_sampling () =
  with_timeseries @@ fun () ->
  Timeseries.set_interval (Sim.us 10);
  let sim = Sim.create () in
  let v = ref 0. in
  (* registered after Sim.create, so the probe is current-generation *)
  Timeseries.register "ts_test_probe" [] (fun () -> !v);
  for i = 1 to 40 do
    ignore
      (Sim.schedule sim ~delay:(Sim.us (5 * i)) (fun () -> v := float_of_int i))
  done;
  Sim.run sim;
  match find_series "ts_test_probe" with
  | None -> Alcotest.fail "probe never sampled"
  | Some s ->
      checkb "at least 10 samples over 200 us" true
        (List.length s.s_points >= 10);
      (* at most one sample per interval crossing: consecutive sample
         times differ by at least the interval. The very first sample is
         taken immediately on the first event, so start from the second. *)
      let rec spaced = function
        | (t1, _) :: ((t2, _) :: _ as rest) ->
            t2 - t1 >= Sim.us 10 && spaced rest
        | _ -> true
      in
      checkb "samples spaced by >= interval" true
        (match s.s_points with [] -> false | _ :: rest -> spaced rest)

let prom_gauge_value name =
  let prefix = name ^ " " in
  Metrics.to_prometheus_string ()
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if
           String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
         then
           float_of_string_opt
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)

let test_high_water_gauge () =
  with_timeseries @@ fun () ->
  Timeseries.set_interval (Sim.us 10);
  let sim = Sim.create () in
  let v = ref 1. in
  Timeseries.register "ts_test_hw_probe" [] (fun () -> !v);
  ignore (Sim.schedule sim ~delay:(Sim.us 15) (fun () -> v := 42.));
  ignore (Sim.schedule sim ~delay:(Sim.us 25) (fun () -> v := 5.));
  ignore (Sim.schedule sim ~delay:(Sim.us 45) (fun () -> ()));
  Sim.run sim;
  match prom_gauge_value "ts_test_hw_probe_hw" with
  | None -> Alcotest.fail "no high-water gauge registered"
  | Some hw -> checkb "peak value folded via set_max" true (hw >= 42.)

let test_gauge_fn_bridge () =
  with_timeseries @@ fun () ->
  Timeseries.set_interval (Sim.us 10);
  let sim = Sim.create () in
  let v = ref 7. in
  (* one registration, two consumers: dump-time metrics gauge AND a
     continuously sampled probe *)
  Metrics.gauge_fn ~help:"bridge test" "ts_test_bridge_gauge" [] (fun () ->
      !v);
  ignore (Sim.schedule sim ~delay:(Sim.us 15) (fun () -> v := 9.));
  ignore (Sim.schedule sim ~delay:(Sim.us 25) (fun () -> ()));
  Sim.run sim;
  match find_series "ts_test_bridge_gauge" with
  | None -> Alcotest.fail "gauge_fn registration was not bridged"
  | Some s -> checkb "bridged gauge sampled" true (s.s_points <> [])

let () =
  Alcotest.run "profile"
    [
      ( "frames",
        [
          Alcotest.test_case "push/charge/pop nesting" `Quick test_nesting;
          Alcotest.test_case "charge_root skips the stack" `Quick
            test_charge_root;
          Alcotest.test_case "server charges its owner" `Quick
            test_server_charges;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "underflow counted" `Quick test_underflow_counted;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "fig3: root inclusive = elapsed" `Quick
            (balanced_run "fig3");
          Alcotest.test_case "fig5: root inclusive = elapsed" `Quick
            (balanced_run "fig5");
          Alcotest.test_case "batch refunds keep the fast path" `Quick
            test_batch_refunds;
          Alcotest.test_case "fig8: profiler and recorder keep the fast path"
            `Quick test_fig8_fast_path;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "event-driven sampling cadence" `Quick
            test_event_driven_sampling;
          Alcotest.test_case "high-water folds into a gauge" `Quick
            test_high_water_gauge;
          Alcotest.test_case "gauge_fn bridge" `Quick test_gauge_fn_bridge;
        ] );
    ]
