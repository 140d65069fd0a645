(* Tests for what the simulator itself costs and how that cost is held:
   the wall-clock profiler (the root-inclusive-equals-elapsed wall
   invariant over a real experiment, allocation attribution without
   double counting across nested frames, --profile/--selfprof
   composition through one push/pop site, event-kind windows and their
   allocation summaries, the wall clock staying on the fast path), the
   event queue's lifecycle counters, histograms and depth probe, and the
   bench gates (the engine-throughput snapshot schema and benchdiff's
   gating rules). *)

open Engine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let with_selfprof f =
  Profile.(start Wall);
  Fun.protect
    ~finally:(fun () ->
      Profile.(stop Wall);
      Profile.(clear Wall))
    f

(* --- wall attribution ------------------------------------------------- *)

(* Exclusive wall times over all stacks must sum to elapsed wall time:
   every transition charges the interval since the previous one to
   exactly one node, and the synthetic [engine] root absorbs event-loop
   and idle time. Checked over a real experiment run, within 1%. *)
let test_wall_folded_sum () =
  match Experiments.Registry.find "fig3" with
  | None -> Alcotest.fail "fig3 experiment missing"
  | Some e ->
      Profile.(start Wall);
      ignore (e.run ~quick:true);
      Profile.(stop Wall);
      let el = Profile.(elapsed Wall) in
      checkb "wall time elapsed" true (el > 0);
      let sum =
        List.fold_left (fun acc (_, self) -> acc + self) 0 Profile.(stacks Wall)
      in
      let drift = abs (sum - el) in
      if float_of_int drift > 0.01 *. float_of_int el then
        Alcotest.failf "folded sum %d vs elapsed %d (drift %d ns > 1%%)" sum el
          drift;
      checki "no unmatched exits counted as frames" 0
        (List.length
           (List.filter (fun (path, _) -> path = []) Profile.(stacks Wall)));
      Profile.(clear Wall)

(* Allocation deltas are charged at transitions, so a nested frame's
   words never also land in its parent: allocate a known number of words
   in each of two nested frames and check each frame got (about) its own
   share and only that. *)
let test_alloc_no_double_count () =
  (* drain the minor heap first: a minor collection mid-interval adds an
     accounting jump to whichever frame it lands in, which is honest
     attribution but not what this test pins down *)
  Gc.full_major ();
  with_selfprof @@ fun () ->
  let keep = ref [] in
  Profile.push "outer";
  keep := Array.make 100_000 0. :: !keep;
  Profile.push "inner";
  keep := Array.make 200_000 0. :: !keep;
  Profile.pop ();
  Profile.pop ();
  ignore (Sys.opaque_identity !keep);
  let alloc = Profile.alloc_stacks () in
  let words path =
    match List.assoc_opt path alloc with Some w -> w | None -> 0
  in
  let outer = words [ "engine"; "outer" ]
  and inner = words [ "engine"; "outer"; "inner" ] in
  if not (outer >= 100_000 && outer < 160_000) then
    Alcotest.failf "outer charged %d words, expected ~100k" outer;
  if not (inner >= 200_000 && inner < 260_000) then
    Alcotest.failf "inner charged %d words, expected ~200k" inner

(* One Profile.push feeds both profilers: with both enabled, a frame
   shows up in the virtual-time stacks (with its charge) and in the
   wall-time tree (as a node), from a single instrumentation site. *)
let test_compose_with_profile () =
  Profile.(start Virtual);
  Profile.(start Wall);
  Fun.protect ~finally:(fun () ->
      Profile.(stop Wall);
      Profile.(clear Wall);
      Profile.(stop Virtual);
      Profile.(clear Virtual))
  @@ fun () ->
  Profile.push "shared";
  Profile.charge 11;
  Profile.pop ();
  checkb "virtual profiler saw the frame" true
    (List.assoc_opt [ "host0"; "shared" ] Profile.(stacks Virtual) = Some 11);
  checkb "wall profiler saw the same frame" true
    (List.mem_assoc [ "engine"; "shared" ] Profile.(stacks Wall))

(* Event windows: a labeled event runs under its ev:<label> kind node,
   frames pushed inside nest under it, and a frame left open by the
   thunk is rewound (counted) instead of absorbing later events. *)
let test_event_windows () =
  with_selfprof @@ fun () ->
  let sim = Sim.create () in
  ignore
    (Sim.schedule ~label:"widget" sim ~delay:0 (fun () ->
         Profile.push "work";
         Profile.pop ()));
  ignore (Sim.schedule ~label:"leaky" sim ~delay:1 (fun () -> Profile.push "open"));
  Sim.run sim;
  let paths = List.map fst Profile.(stacks Wall) in
  checkb "kind node created" true (List.mem [ "engine"; "ev:widget" ] paths);
  checkb "inner frame nests under the kind" true
    (List.exists (fun p -> p = [ "engine"; "ev:widget"; "work" ]) paths
    || not (List.mem [ "engine"; "work" ] paths));
  checki "dangling frame rewound and counted" 1 (Profile.dangling ());
  let kinds = List.map (fun (l, _, _, _) -> l) (Profile.kind_summaries ()) in
  checkb "per-kind summaries accumulated" true
    (List.mem "widget" kinds && List.mem "leaky" kinds)

(* A kind's allocation summary uses the tree's formula: promoted words
   are counted once, not once per heap. Live blocks promoted by a forced
   minor collection inside the event would be counted twice otherwise. *)
let test_kind_words_match_tree () =
  with_selfprof @@ fun () ->
  let keep = ref [] in
  let sim = Sim.create () in
  ignore
    (Sim.schedule ~label:"promote" sim ~delay:0 (fun () ->
         for i = 1 to 10_000 do
           keep := (i, i) :: !keep
         done;
         Gc.minor ()));
  Sim.run sim;
  ignore (Sys.opaque_identity !keep);
  let tree =
    List.fold_left
      (fun acc (path, w) ->
        match path with
        | "engine" :: "ev:promote" :: _ -> acc + w
        | _ -> acc)
      0 (Profile.alloc_stacks ())
  in
  match
    List.find_opt
      (fun (l, _, _, _) -> l = "promote")
      (Profile.kind_summaries ())
  with
  | None -> Alcotest.fail "no summary for the promote kind"
  | Some (_, events, _, words) ->
      checki "one event" 1 events;
      checkb "live blocks allocated" true (tree >= 30_000);
      checki "kind words = inclusive words of ev:promote" tree
        (int_of_float words)

(* The wall clock attributes per event window, so it needs no per-cell
   events: a multi-cell run with it on fires exactly the events of a
   flags-off run, and its folded sum still equals elapsed wall time. *)
let test_wall_clock_unpinned () =
  let events () =
    let fired0 = Sim.events_fired () in
    ignore (Experiments.Common.raw_bandwidth ~count:30 ~size:5056 () : float);
    Sim.events_fired () - fired0
  in
  let base = events () in
  Profile.(start Wall);
  let profiled =
    Fun.protect ~finally:(fun () -> Profile.(stop Wall)) events
  in
  checki "wall clock pins nothing" base profiled;
  let el = Profile.(elapsed Wall) in
  let sum =
    List.fold_left (fun acc (_, self) -> acc + self) 0 Profile.(stacks Wall)
  in
  Profile.(clear Wall);
  if float_of_int (abs (sum - el)) > 0.01 *. float_of_int el then
    Alcotest.failf "folded sum %d vs elapsed %d" sum el

(* --- queue introspection ---------------------------------------------- *)

let test_queue_counters () =
  let fired0 = Sim.events_fired () and cancelled0 = Sim.events_cancelled () in
  let sim = Sim.create () in
  let h = Sim.schedule sim ~delay:5 (fun () -> ()) in
  ignore (Sim.schedule sim ~delay:1 (fun () -> ()));
  ignore (Sim.schedule sim ~delay:2 (fun () -> ()));
  Sim.cancel h;
  Sim.cancel h;
  (* double cancel counts once *)
  Sim.run sim;
  checki "fired" 2 (Sim.events_fired () - fired0);
  checki "cancelled" 1 (Sim.events_cancelled () - cancelled0);
  checkb "tombstone ratio in [0,1]" true
    (Sim.tombstone_ratio () >= 0. && Sim.tombstone_ratio () <= 1.)

let test_queue_histograms () =
  with_selfprof @@ fun () ->
  let sim = Sim.create () in
  (* three events at one timestamp -> a batch of 3; a cancelled event
     ahead of them -> at least one pop skips a tombstone *)
  let h = Sim.schedule sim ~delay:1 (fun () -> ()) in
  Sim.cancel h;
  for _ = 1 to 3 do
    ignore (Sim.schedule sim ~delay:2 (fun () -> ()))
  done;
  Sim.run sim;
  checkb "pop-cost histogram populated" true (Profile.pop_cost_hist () <> []);
  checkb "some pop paid for the tombstone" true (Profile.pop_cost_mean () > 0.);
  checkb "batch of 3 observed" true
    (List.exists (fun (n, _) -> n >= 3) (Profile.batch_size_hist ()));
  checkb "mean batch >= 1" true (Profile.batch_size_mean () >= 1.)

let test_queue_depth_probe () =
  Timeseries.clear ();
  Timeseries.start ();
  Fun.protect ~finally:(fun () ->
      Timeseries.stop ();
      Timeseries.clear ())
  @@ fun () ->
  Timeseries.set_interval (Sim.us 10);
  let sim = Sim.create () in
  for i = 1 to 40 do
    ignore (Sim.schedule sim ~delay:(Sim.us (5 * i)) (fun () -> ()))
  done;
  Sim.run sim;
  match
    List.find_opt
      (fun (s : Timeseries.series) -> s.s_name = "sim_queue_depth")
      (Timeseries.series ())
  with
  | None -> Alcotest.fail "sim_queue_depth probe never sampled"
  | Some s ->
      checkb "at least 10 depth samples over 200 us" true
        (List.length s.s_points >= 10);
      checkb "depth decreases as the queue drains" true
        (match (s.s_points, List.rev s.s_points) with
        | (_, first) :: _, (_, last) :: _ -> last <= first
        | _ -> false)

(* --- engine-throughput snapshot schema ---------------------------------- *)

(* The registry outcome carries seven deterministic, gated members per
   workload; wall time is the end-to-end benchmark's, so no member reads
   a wall clock. *)
let test_engine_throughput_schema () =
  match Experiments.Registry.find "engine-throughput" with
  | None -> Alcotest.fail "engine-throughput experiment missing"
  | Some e ->
      let o = e.run ~quick:true in
      let members = o.Experiments.Registry.o_members in
      let value key =
        match List.assoc_opt key members with
        | Some (v, _) -> v
        | None -> Alcotest.failf "%s missing" key
      in
      List.iter
        (fun (workload, _, _) ->
          checkb (workload ^ " fired events") true
            (value (workload ^ "_events_fired") > 0.);
          checkb (workload ^ " allocated") true
            (value (workload ^ "_alloc_words_per_event") > 0.);
          List.iter
            (fun suffix -> ignore (value (workload ^ suffix) : float))
            [
              "_events_per_pdu";
              "_mb_per_sec";
              "_latency_p50_ns";
              "_latency_p99_ns";
              "_latency_p999_ns";
            ])
        (Experiments.Enginebench.workloads ~quick:true);
      let contains key sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length key && (String.sub key i n = sub || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun (key, _) ->
          checkb (key ^ " reads no wall clock") false
            (contains key "_wall" || contains key "_us_per_event"))
        members;
      checki "seven gated members per workload" 28 (List.length members);
      checkb "every claim holds" true (List.for_all snd o.o_checks)

(* --- direction-aware gating ------------------------------------------- *)

let snap gates values =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Num v)) values
    @ [ ("gates", Benchgate.gates_json gates) ])

let test_gate_directions () =
  let open Benchgate in
  let lower = { g_tolerance = 0.2; g_direction = Lower_is_better } in
  let higher = { g_tolerance = 0.2; g_direction = Higher_is_better } in
  let both = { g_tolerance = 0.2; g_direction = Both } in
  checkb "lower: regression flagged" true
    (violates lower ~baseline:100. ~current:130.);
  checkb "lower: improvement passes however large" false
    (violates lower ~baseline:100. ~current:10.);
  checkb "higher: regression flagged" true
    (violates higher ~baseline:100. ~current:70.);
  checkb "higher: improvement passes however large" false
    (violates higher ~baseline:100. ~current:1000.);
  checkb "both: flagged either way" true
    (violates both ~baseline:100. ~current:130.
    && violates both ~baseline:100. ~current:70.);
  checkb "within tolerance passes" false
    (violates lower ~baseline:100. ~current:110.)

let test_diff_gated () =
  let gates =
    [
      ("us_per_event", Benchgate.{ g_tolerance = 0.5; g_direction = Lower_is_better });
      ("events_per_sec", Benchgate.{ g_tolerance = 0.5; g_direction = Higher_is_better });
    ]
  in
  let baseline = snap gates [ ("us_per_event", 2.0); ("events_per_sec", 1e6) ] in
  let improved = snap gates [ ("us_per_event", 0.5); ("events_per_sec", 4e6) ] in
  let regressed = snap gates [ ("us_per_event", 4.0); ("events_per_sec", 1e6) ] in
  checkb "improvement produces no flags" true
    (Benchgate.diff ~tolerance:0.1 baseline improved = []);
  checkb "regression is flagged" true
    (Benchgate.diff ~tolerance:0.1 baseline regressed <> []);
  (* the baseline's gates govern even if the current snapshot carries
     different (e.g. loosened) gates *)
  let loosened =
    snap
      [ ("us_per_event", Benchgate.{ g_tolerance = 99.; g_direction = Both }) ]
      [ ("us_per_event", 4.0); ("events_per_sec", 1e6) ]
  in
  checkb "baseline's copy of the gates wins" true
    (Benchgate.diff ~tolerance:0.1 baseline loosened <> [])

let test_diff_missing_metric () =
  let gates =
    [ ("us_per_event", Benchgate.{ g_tolerance = 0.5; g_direction = Lower_is_better }) ]
  in
  let baseline = snap gates [ ("us_per_event", 2.0) ] in
  let missing = snap gates [] in
  checkb "gated metric missing from current is flagged" true
    (Benchgate.diff ~tolerance:0.1 baseline missing <> [])

let () =
  Alcotest.run "simcost"
    [
      ( "wall",
        [
          Alcotest.test_case "folded sum = elapsed (fig3)" `Quick
            test_wall_folded_sum;
          Alcotest.test_case "alloc not double-counted" `Quick
            test_alloc_no_double_count;
          Alcotest.test_case "composes with --profile" `Quick
            test_compose_with_profile;
          Alcotest.test_case "event kind windows" `Quick test_event_windows;
          Alcotest.test_case "kind words = tree words" `Quick
            test_kind_words_match_tree;
          Alcotest.test_case "wall clock keeps the fast path" `Quick
            test_wall_clock_unpinned;
        ] );
      ( "queue",
        [
          Alcotest.test_case "lifecycle counters" `Quick test_queue_counters;
          Alcotest.test_case "pop-cost and batch histograms" `Quick
            test_queue_histograms;
          Alcotest.test_case "depth probe cadence" `Quick test_queue_depth_probe;
        ] );
      ( "bench",
        [
          Alcotest.test_case "engine-throughput snapshot schema" `Quick
            test_engine_throughput_schema;
          Alcotest.test_case "gate directions" `Quick test_gate_directions;
          Alcotest.test_case "diff obeys baseline gates" `Quick test_diff_gated;
          Alcotest.test_case "missing gated metric flagged" `Quick
            test_diff_missing_metric;
        ] );
    ]
