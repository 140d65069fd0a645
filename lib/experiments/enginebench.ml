(* Engine throughput (the [engine-throughput] experiment): how much work
   does the simulator itself do per message on its hot path?

   Three workload families, chosen to bracket the hot path:

   - fig4-max: figure 4's bandwidth measurement at the sweep's maximum
     message size (5056 B ≈ 107 cells/message), once over raw U-Net and
     once over UAM store — the PDU-heavy shape where per-cell link and
     switch events dominate;

   - cell-storm: back-to-back 64-byte raw messages, one cell each — the
     event-rate-heavy shape where scheduler overhead (schedule/pop per
     event) dominates and per-byte work is negligible;

   - clos2-raw: fig4-max again but across a 2x2x2 Clos fabric, so every
     PDU's train is planned over three switch stages — the gate that
     multi-hop planning (DESIGN.md §16) costs no extra events.

   Each workload runs once. Measured per workload: fired events, events
   per message, the workload's own virtual-time bandwidth, message-latency
   quantiles and GC words allocated per event. All are deterministic for
   a fixed code path, so the snapshot members carry tight gates. Wall
   time is left to the end-to-end benchmark (bench/e2e), which repeats
   its trials and compares their spread. *)

open Engine

type sample = {
  s_workload : string;
  s_events : int; (* fired by the workload *)
  s_pdus : int; (* messages the workload pushed through *)
  s_alloc_words : float; (* minor + major - promoted *)
  s_virt_mb_s : float; (* the workload's own bandwidth figure *)
  (* message-latency quantiles (virtual ns) from the always-on
     [message_latency_ns] sketch, cleared per workload *)
  s_lat_p50 : float;
  s_lat_p99 : float;
  s_lat_p999 : float;
}

type t = sample list

let workloads ~quick =
  let raw_count = if quick then 150 else 800 in
  let store_count = if quick then 75 else 400 in
  let storm_count = if quick then 800 else 4000 in
  let clos_count = if quick then 150 else 800 in
  (* a 2x2x2 Clos: the smallest fabric where every cross-pod PDU crosses
     three switch stages, so multi-hop train planning (DESIGN.md §16) is
     on the measured path *)
  let clos2 = Atm.Network.Clos { pods = 2; spine = 2; hosts_per_pod = 2 } in
  [
    ( "fig4max_raw",
      raw_count,
      fun () -> Common.raw_bandwidth ~count:raw_count ~size:5056 () );
    ( "fig4max_store",
      store_count,
      fun () -> Common.uam_store_bandwidth ~count:store_count ~size:5056 () );
    ( "cellstorm",
      storm_count,
      fun () -> Common.raw_bandwidth ~count:storm_count ~size:64 () );
    ( "clos2_raw",
      clos_count,
      fun () ->
        Common.raw_bandwidth ~count:clos_count ~size:5056 ~topology:clos2
          ~pair:(0, 3) () );
  ]

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let measure_one (name, pdus, f) =
  let sketch = Span.latency () in
  (* this workload alone feeds the latency sketch *)
  Metrics.Sketch.clear sketch;
  let fired0 = Sim.events_fired () in
  let alloc0 = alloc_words () in
  let mb = f () in
  let alloc = alloc_words () -. alloc0 in
  let q p =
    if Metrics.Sketch.count sketch = 0 then 0.
    else Metrics.Sketch.quantile sketch p
  in
  {
    s_workload = name;
    s_events = Sim.events_fired () - fired0;
    s_pdus = pdus;
    s_alloc_words = alloc;
    s_virt_mb_s = mb;
    s_lat_p50 = q 0.5;
    s_lat_p99 = q 0.99;
    s_lat_p999 = q 0.999;
  }

let run ~quick = List.map measure_one (workloads ~quick)

let alloc_per_event s =
  if s.s_events = 0 then 0.
  else s.s_alloc_words /. float_of_int s.s_events

let events_per_pdu s =
  if s.s_pdus = 0 then 0. else float_of_int s.s_events /. float_of_int s.s_pdus

let members samples =
  let open Benchgate in
  let gate g_tolerance g_direction = { g_tolerance; g_direction } in
  List.concat_map
    (fun s ->
      let m suffix v g = (s.s_workload ^ suffix, (v, g)) in
      [
        m "_events_fired" (float_of_int s.s_events) (gate 0.01 Both);
        (* deterministic ratchet on the train fast path: any change that
           re-inflates the per-PDU event count fails; deflating it passes
           and the next baseline capture locks the gain in *)
        m "_events_per_pdu" (events_per_pdu s) (gate 0.01 Lower_is_better);
        m "_mb_per_sec" s.s_virt_mb_s (gate 0.05 Both);
        (* virtual-time latencies are deterministic; the sketch buckets
           are multiplicative (~2% wide), so any distribution shift moves
           a quantile by at least a bucket and trips the gate *)
        m "_latency_p50_ns" s.s_lat_p50 (gate 0.01 Both);
        m "_latency_p99_ns" s.s_lat_p99 (gate 0.01 Both);
        m "_latency_p999_ns" s.s_lat_p999 (gate 0.01 Both);
        m "_alloc_words_per_event" (alloc_per_event s)
          (gate 0.25 Lower_is_better);
      ])
    samples

(* Before the cell-train fast path (DESIGN.md §14), fig4max_raw fired
   125 120 events for its 150 quick-mode PDUs (~834 per PDU). The
   events_per_pdu gate ratchets the exact count; this claim asserts that
   order of magnitude never returns. *)
let checks samples =
  List.filter_map
    (fun s ->
      if s.s_workload <> "fig4max_raw" then None
      else
        Some
          ( "train fast path engaged: fig4max_raw fires at most a third of \
             its pre-train 834 events/PDU",
            s.s_events * 3 * 150 <= 125_120 * s.s_pdus ))
    samples

let print samples =
  Format.printf "  %-16s %12s %11s %14s %12s %10s %10s@." "workload" "events"
    "events/pdu" "words/event" "virt MB/s" "lat p50" "lat p99.9";
  List.iter
    (fun s ->
      Format.printf "  %-16s %12d %11.1f %14.1f %12.2f %8.1fus %8.1fus@."
        s.s_workload s.s_events (events_per_pdu s) (alloc_per_event s)
        s.s_virt_mb_s (s.s_lat_p50 /. 1e3) (s.s_lat_p999 /. 1e3))
    samples
