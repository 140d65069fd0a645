(* Global gate for the cell-train fast path (DESIGN.md §14, §15).

   Trains coalesce per-cell events into per-PDU analytic schedules, which is
   only legal when nothing observes the simulation *between* cells. Since
   PR 8 that is a per-observer property, not an all-or-nothing one: Trace,
   Span and Timeseries default to [Per_train] (they synthesize their output
   from committed plan records) and only pin the slow path when explicitly
   set to [Per_cell]; pcapng capture defaults to [Per_cell] (a full capture
   needs every cell) unless PDU sampling flips it; the profilers and the
   flight recorder measure event-grain behavior itself and always pin.
   Fault injectors are per-site and are checked at each link/NI, not here,
   so a --fault at one attachment point expands only the affected hop. *)

let forced = ref false
let force_per_cell v = forced := v

let pinned () =
  let per_cell g = g = Granularity.Per_cell in
  List.filter_map
    (fun (name, pins) -> if pins () then Some name else None)
    [
      ("trace", fun () -> Trace.enabled () && per_cell (Trace.granularity ()));
      ("pcap", fun () -> Pcapng.enabled () && per_cell (Pcapng.granularity ()));
      ("span", fun () -> Span.enabled () && per_cell (Span.granularity ()));
      ( "timeseries",
        fun () ->
          Timeseries.enabled () && per_cell (Timeseries.granularity ()) );
      ("profile", Profile.enabled);
      ("selfprof", Selfprof.enabled);
      ("recorder", Recorder.armed);
    ]

let synthesizing () =
  Trace.train_slices_wanted ()
  || (Span.enabled () && Span.granularity () = Granularity.Per_train)

(* Satellite 1: pinning is easy to cause by accident (attach one eager
   observer, silently lose the 14x fast path), so name the culprits once —
   a [trainmode_pinned{observer}] gauge plus one stderr line. Never for
   the --per-cell flag: that pin is explicit, and the differential tests
   compare dumps across the flag byte-for-byte. *)
let warned = ref false
let pin_gauges : (string, Metrics.Gauge.t) Hashtbl.t = Hashtbl.create 7

let note_pinned names =
  List.iter
    (fun name ->
      let g =
        match Hashtbl.find_opt pin_gauges name with
        | Some g -> g
        | None ->
            let g =
              Metrics.gauge
                ~help:"1 when this observer pins the per-cell slow path"
                "trainmode_pinned"
                [ ("observer", name) ]
            in
            Hashtbl.replace pin_gauges name g;
            g
      in
      Metrics.Gauge.set g 1.)
    names;
  if not !warned then begin
    warned := true;
    Logs.warn (fun m ->
        m "cell-train fast path disabled by per-cell observer%s: %s"
          (if List.length names > 1 then "s" else "")
          (String.concat ", " names))
  end

let active () =
  if !forced then false
  else
    match pinned () with
    | [] -> true
    | names ->
        note_pinned names;
        false
