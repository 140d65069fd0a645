(* Global gate for the cell-train fast path (DESIGN.md §14, §15).

   Trains coalesce per-cell events into per-PDU analytic schedules, which is
   only legal when nothing observes the simulation *between* cells.
   Pinning follows from what is attached: trace and span output is
   synthesized from committed plan records, timeseries probes evaluate
   planned state at sample boundaries, and the wall clock of [Profile]
   attributes per event window, so none of them pins. A pcapng capture
   needs every cell on the wire and pins unless PDU sampling is on (then
   only the sampled PDUs, which run per-cell anyway, are captured). The
   virtual clock of [Profile] (its NI charges are per cell) and the flight
   recorder always pin. Fault injectors are per-site and are checked at
   each link/NI, not here, so a --fault at one attachment point expands
   only the affected hop. *)

let forced = ref false
let force_per_cell v = forced := v

let pinned () =
  List.filter_map
    (fun (name, pins) -> if pins () then Some name else None)
    [
      ("pcap", fun () -> Pcapng.enabled () && not (Sample.active ()));
      ("profile", fun () -> Profile.(enabled Virtual));
      ("recorder", Recorder.armed);
    ]

let synthesizing () = Trace.enabled () || Span.enabled ()

(* Pinning is easy to cause by accident (attach one eager observer,
   silently lose the 14x fast path), so name the culprits once — a
   [trainmode_pinned{observer}] gauge plus one stderr line. Never for
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
