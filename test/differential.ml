(* Train = per-cell differentials (DESIGN.md §14): run the same traffic
   with the cell-train fast path on and forced off, and compare every
   metric the simulator exposes. Only the engine's own event-accounting
   counters may differ (fewer events is the point). *)

open Engine

(* sim_events_total{outcome=...} is the one family the fast path is
   allowed (expected) to change. *)
let strip_event_counters dump =
  String.split_on_char '\n' dump
  |> List.filter (fun line ->
         not
           (String.length line >= 16
           && String.sub line 0 16 = "sim_events_total"))
  |> String.concat "\n"

(* Run [f] once per mode from a clean registry and return each mode's
   stripped Prometheus dump plus the events it fired. *)
let both_modes f =
  let run forced =
    Metrics.reset ();
    Trainmode.force_per_cell forced;
    let fired0 = Sim.events_fired () in
    (try f ()
     with e ->
       Trainmode.force_per_cell false;
       raise e);
    Trainmode.force_per_cell false;
    Metrics.flush ();
    ( strip_event_counters (Metrics.to_prometheus_string ()),
      Sim.events_fired () - fired0 )
  in
  let train = run false in
  let percell = run true in
  (train, percell)
