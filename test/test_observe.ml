(* Fast-path-compatible telemetry (DESIGN.md §15): the latency sketch,
   and the guarantee that train-granular observers neither pin the
   per-cell slow path nor change what they report. *)

open Engine

let checkb name expected got = Alcotest.(check bool) name expected got
let checki name expected got = Alcotest.(check int) name expected got

(* --- latency sketch --------------------------------------------------- *)

let sketch_bounds () =
  let s = Metrics.Sketch.create () in
  let n = 20_000 in
  (* a deterministic right-skewed distribution spanning ~7 decades *)
  let vals = Array.init n (fun i -> exp (float_of_int i /. 1234.)) in
  Array.iter (Metrics.Sketch.observe s) vals;
  let sorted = Array.copy vals in
  Array.sort compare sorted;
  let exact q =
    sorted.(max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
  in
  checki "count is exact" n (Metrics.Sketch.count s);
  Alcotest.(check (float 1e-6)) "max is exact" sorted.(n - 1)
    (Metrics.Sketch.max s);
  let tol = (Metrics.Sketch.alpha *. 1.1) +. 1e-9 in
  List.iter
    (fun q ->
      let want = exact q and got = Metrics.Sketch.quantile s q in
      checkb
        (Printf.sprintf "p%g within %.1f%% (want %g got %g)" (q *. 100.)
           (tol *. 100.) want got)
        true
        (Float.abs (got -. want) <= tol *. want))
    [ 0.5; 0.9; 0.99; 0.999 ];
  Metrics.Sketch.clear s;
  checki "clear empties" 0 (Metrics.Sketch.count s);
  checkb "quantile of empty sketch raises" true
    (try
       ignore (Metrics.Sketch.quantile s 0.5 : float);
       false
     with _ -> true)

(* --- span milestones: train-granular = per-cell ----------------------- *)

let all_marks =
  Span.
    [
      Doorbell;
      Nic_tx;
      Injected;
      Link_tx;
      Switch_in;
      Switch_out;
      Rx_cell;
      Demuxed;
      Popped;
      Dispatched;
      Dropped;
    ]

(* Everything observable about a span except its allocation-order ids,
   which differ between two runs in the same process. *)
let span_fingerprint () =
  Span.spans ()
  |> List.map (fun (s : Span.span) ->
         Printf.sprintf "%s host=%d minted=%d %s" s.Span.name s.Span.host
           s.Span.minted
           (String.concat ","
              (List.map
                 (fun m ->
                   match Span.mark_time s m with
                   | Some t -> Printf.sprintf "%s=%d" (Span.mark_name m) t
                   | None -> Span.mark_name m ^ "=-")
                 all_marks)))
  |> String.concat "\n"

(* Single-cell PDUs take the per-cell path (real marks) and the larger
   ones ride trains (marks synthesized from plan records): the whole span
   dump must still be byte-identical to the forced per-cell run, where
   every mark is stamped by a real event. *)
let spans_identical_across_modes () =
  let run forced =
    Metrics.reset ();
    Span.clear ();
    Span.start ();
    let fired = Mixed.traffic ~forced () in
    let fp = span_fingerprint () in
    Span.stop ();
    Span.clear ();
    (fp, fired)
  in
  let train, train_fired = run false in
  let percell, percell_fired = run true in
  checkb "spans were collected" true (String.length train > 0);
  checkb
    (Printf.sprintf "the train run fired fewer events (%d vs %d)" train_fired
       percell_fired)
    true
    (train_fired < percell_fired);
  Alcotest.(check string) "span milestones train = per-cell" percell train

(* --- observers keep the fast path engaged ----------------------------- *)

(* Every engine-throughput workload fires exactly its flags-off events
   with the trace collector, timeseries sampler, spans and a pcapng capture
   attached, and again with flow accounting and path records on: all of
   them fold at train commit, so none pins the per-cell path. The latency
   sketch still sees every observed run's messages. *)
let observers_stay_fast () =
  let fired f =
    Metrics.reset ();
    let fired0 = Sim.events_fired () in
    ignore (f () : float);
    Sim.events_fired () - fired0
  in
  let observed ~start ~stop f =
    start ();
    Fun.protect ~finally:stop (fun () -> fired f)
  in
  List.iter
    (fun (name, _, f) ->
      let base = fired f in
      checki
        (name ^ ": trace + timeseries + spans + pcap fire the flags-off events")
        base
        (observed f
           ~start:(fun () ->
             Trace.start ();
             Timeseries.start ();
             Span.start ();
             Pcapng.start ())
           ~stop:(fun () ->
             Trace.stop ();
             Trace.clear ();
             Timeseries.stop ();
             Timeseries.clear ();
             Span.stop ();
             Span.clear ();
             Pcapng.stop ();
             Pcapng.clear ()));
      checkb (name ^ ": latency sketch fed while observed") true
        (Metrics.Sketch.count (Span.latency ()) > 0);
      checki
        (name ^ ": flowstat + path records fire the flags-off events")
        base
        (observed f
           ~start:(fun () ->
             Atm.Flowstat.configure ();
             Pathrec.start ())
           ~stop:(fun () ->
             Atm.Flowstat.disable ();
             Pathrec.stop ();
             Pathrec.clear ())))
    (Experiments.Enginebench.workloads ~quick:true)

(* --- timeseries ring-drop counter ------------------------------------- *)

let timeseries_drop_counter () =
  Metrics.reset ();
  Timeseries.clear ();
  Timeseries.set_interval 10;
  Timeseries.start ();
  Timeseries.register "obs_test_probe" [] (fun () -> 1.);
  (* one sample per boundary; 9000 boundaries into an 8192-point ring *)
  for i = 1 to 9000 do
    Timeseries.on_event (i * 10)
  done;
  Timeseries.stop ();
  let dropped =
    Metrics.counter_value "timeseries_points_dropped_total"
      [ ("series", "obs_test_probe") ]
  in
  checki "overwritten points counted" (9000 - 8192)
    (Option.value ~default:0 dropped);
  (match Timeseries.series () with
  | [ s ] -> checki "series drop count matches" (9000 - 8192) s.s_dropped
  | l -> Alcotest.failf "expected one series, got %d" (List.length l));
  Timeseries.clear ();
  Timeseries.set_interval 10_000

(* --- registry at fabric scale ------------------------------- *)

(* A fabric registers thousands of label sets per family: lookup must not
   depend on their number, re-registration must return the same
   instrument whatever the label order, and dumps keep insertion order. *)
let registry_many_label_sets () =
  let n = 5000 in
  (* insertion order deliberately differs from any sort of the labels *)
  let key i = string_of_int ((i * 7919) mod n) in
  let labels i = [ ("obs_k", key i); ("a", "x") ] in
  let made =
    Array.init n (fun i -> Metrics.counter "obs_test_many_total" (labels i))
  in
  let same = ref true in
  for j = 0 to n - 1 do
    let i = (j * 4999) mod n in
    let again =
      Metrics.counter "obs_test_many_total" (List.rev (labels i))
    in
    if again != made.(i) then same := false
  done;
  checkb "re-registration returns the same instrument" true !same;
  let want = List.init n key in
  let lines_with prefix dump =
    String.split_on_char '\n' dump
    |> List.filter (fun l ->
           String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix)
  in
  let prom_keys =
    lines_with "obs_test_many_total{" (Metrics.to_prometheus_string ())
    |> List.map (fun l ->
           Scanf.sscanf l "obs_test_many_total{a=\"x\",obs_k=\"%[0-9]\"}"
             Fun.id)
  in
  Alcotest.(check (list string)) "Prometheus dump in insertion order" want
    prom_keys;
  let json_keys =
    match
      Option.bind
        (Json.member "families" (Json.of_string (Metrics.to_json_string ())))
        Json.to_list
    with
    | None -> Alcotest.fail "JSON dump has no families"
    | Some fams ->
        List.concat_map
          (fun f ->
            if
              Option.bind (Json.member "name" f) Json.to_str
              = Some "obs_test_many_total"
            then
              Option.value ~default:[]
                (Option.bind (Json.member "samples" f) Json.to_list)
              |> List.filter_map (fun s ->
                     Option.bind (Json.member "labels" s) (fun l ->
                         Option.bind (Json.member "obs_k" l) Json.to_str))
            else [])
          fams
  in
  Alcotest.(check (list string)) "JSON dump in insertion order" want json_keys

(* Rings are allocated on a probe's first sample; a probe that never got
   one is still a series, with no points, in both dump formats. *)
let idle_probe_dumps () =
  Timeseries.clear ();
  Timeseries.register "obs_idle_probe" [ ("host", "0") ] (fun () -> 1.);
  (match Timeseries.series () with
  | [ s ] ->
      Alcotest.(check string) "listed" "obs_idle_probe" s.s_name;
      checki "no points" 0 (List.length s.s_points)
  | l -> Alcotest.failf "expected one series, got %d" (List.length l));
  let json = Filename.temp_file "obs_idle" ".json" in
  let csv = Filename.temp_file "obs_idle" ".csv" in
  Timeseries.write_json json;
  Timeseries.write_csv csv;
  let series =
    Option.bind (Json.member "series" (Json.of_file json)) Json.to_list
  in
  (match series with
  | Some [ s ] ->
      checkb "JSON series has an empty points list" true
        (Option.bind (Json.member "points" s) Json.to_list = Some [])
  | _ -> Alcotest.fail "JSON dump should hold exactly one series");
  let ic = open_in csv in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "CSV is the header alone" "series,labels,t_ns,value\n"
    body;
  Sys.remove json;
  Sys.remove csv;
  Timeseries.clear ()

(* --- one trace ring ---------------------------------------------------- *)

(* Train slices share the bounded ring with per-cell events, so a stream
   that overflows it keeps at most [capacity] events of both kinds, and
   the count the CLI prints (what [write_chrome_file] returns) is the
   count the file holds. *)
let trace_one_ring () =
  let capacity = 64 in
  Metrics.reset ();
  Trace.start ~capacity ();
  Fun.protect ~finally:(fun () ->
      Trace.stop ();
      Trace.clear ())
  @@ fun () ->
  ignore (Experiments.Common.raw_bandwidth ~count:60 ~size:5056 () : float);
  let events = Trace.events () in
  let is_slice (e : Trace.event) =
    String.length e.name > 6 && String.sub e.name 0 6 = "train."
  in
  checkb "the stream overflowed the ring" true
    (Trace.total_events () > 2 * capacity);
  checkb "train slices retained" true (List.exists is_slice events);
  checkb "per-cell events retained" true
    (List.exists (fun e -> not (is_slice e)) events);
  let n = List.length events in
  if n > capacity then Alcotest.failf "exported %d > capacity %d" n capacity;
  let path = Filename.temp_file "obs_trace" ".json" in
  let written = Trace.write_chrome_file path in
  let exported =
    Option.fold ~none:(-1) ~some:List.length (Json.to_list (Json.of_file path))
  in
  Sys.remove path;
  checki "events exported = events retained" n exported;
  checki "count written = events exported" exported written

(* --- a capture rides trains -------------------------------------------- *)

(* A fig4-sized raw stream fires exactly its flags-off events with a pcapng
   capture attached: the capture takes each train's cells from its
   committed plan instead of pinning the per-cell path. *)
let pcap_rides_trains () =
  let fired () =
    Metrics.reset ();
    let fired0 = Sim.events_fired () in
    ignore (Experiments.Common.raw_bandwidth ~count:200 ~size:5056 () : float);
    Sim.events_fired () - fired0
  in
  let base = fired () in
  Pcapng.start ();
  Fun.protect
    ~finally:(fun () ->
      Pcapng.stop ();
      Pcapng.clear ())
  @@ fun () ->
  checki "a capture fires the flags-off events" base (fired ());
  checkb "cells were captured" true (Pcapng.packet_count () > 1000)

(* --- the CLI's exports -------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* fig3 with spans, a capture and the breakdown report: the spans dump is
   a JSON list of spans, the report attributes send_cpu, and the capture
   is a pcapng file with cells in it. fig4 counts mux deliveries. *)
let cli_exports () =
  let run name =
    Metrics.reset ();
    ignore ((Option.get (Experiments.Registry.find name)).run ~quick:true)
  in
  Span.start ();
  Pcapng.start ();
  Fun.protect
    ~finally:(fun () ->
      Span.stop ();
      Span.clear ();
      Pcapng.stop ();
      Pcapng.clear ())
    (fun () ->
      run "fig3";
      checkb "the spans dump is a JSON list of spans" true
        (match Json.to_list (Json.of_string (Span.to_json ())) with
        | Some (_ :: _) -> true
        | _ -> false);
      checkb "the breakdown attributes send_cpu" true
        (contains
           (Format.asprintf "%a" Experiments.Breakdown.pp_report ())
           "send_cpu");
      let pcap = Pcapng.to_string () in
      Alcotest.(check string)
        "the capture opens with the SHB magic" "\x0a\x0d\x0d\x0a"
        (String.sub pcap 0 4);
      checkb "the capture holds cells" true (String.length pcap > 100));
  run "fig4";
  checkb "fig4 counts mux deliveries" true
    (Metrics.counter_value "unet_mux_deliveries_total" [ ("host", "1") ]
    > Some 0)

let () =
  Alcotest.run "observe"
    [
      ( "sketch",
        [ Alcotest.test_case "quantile error bounds" `Quick sketch_bounds ] );
      ( "spans",
        [
          Alcotest.test_case "train = per-cell, mixed sizes" `Slow
            spans_identical_across_modes;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "observers do not pin" `Slow observers_stay_fast;
          Alcotest.test_case "ring drops counted" `Quick
            timeseries_drop_counter;
          Alcotest.test_case "pcap rides trains" `Quick pcap_rides_trains;
        ] );
      ( "trace",
        [
          Alcotest.test_case "one ring for events and slices" `Quick
            trace_one_ring;
        ] );
      ( "exports",
        [ Alcotest.test_case "fig3 and fig4 exports" `Quick cli_exports ] );
      ( "registry",
        [
          Alcotest.test_case "5000 label sets in one family" `Quick
            registry_many_label_sets;
          Alcotest.test_case "never-sampled probe dumps" `Quick
            idle_probe_dumps;
        ] );
    ]
