(* Global gate for the cell-train fast path (DESIGN.md §14, §15).

   Trains coalesce per-cell events into per-PDU analytic schedules, which is
   only legal when nothing observes the simulation *between* cells. Trace
   and span output is synthesized from committed plan records, timeseries
   probes evaluate planned state at sample boundaries, the profiler's wall
   clock attributes per event window and its virtual clock is charged by
   [Sync.Server] per batch, and the flight recorder watches deliveries,
   which trains reach too; none of them pins. A pcapng capture needs every
   cell on the wire, in event-firing order, and pins. Fault injectors
   are per-site and are checked at each link/NI, not here, so a --fault at
   one attachment point expands only the affected hop. *)

let forced = ref false
let force_per_cell v = forced := v
let pinned () = Pcapng.enabled ()
let synthesizing () = Trace.enabled () || Span.enabled ()

(* Pinning is easy to cause by accident (attach a full capture, silently
   lose the 14x fast path), so it is named — a
   [trainmode_pinned{observer="pcap"}] gauge plus one stderr line per
   process. Never for the --per-cell flag: that pin is explicit, and the
   differential tests compare dumps across the flag byte-for-byte. *)
let warned = ref false

let pin_gauge =
  lazy
    (Metrics.gauge ~help:"1 when this observer pins the per-cell slow path"
       "trainmode_pinned"
       [ ("observer", "pcap") ])

let active () =
  if !forced then false
  else if pinned () then begin
    Metrics.Gauge.set (Lazy.force pin_gauge) 1.;
    if not !warned then begin
      warned := true;
      Logs.warn (fun m ->
          m "cell-train fast path disabled by per-cell observer: pcap")
    end;
    false
  end
  else true
