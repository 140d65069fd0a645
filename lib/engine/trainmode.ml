(* Global gate for the cell-train fast path (DESIGN.md §14, §15).

   Trains coalesce per-cell events into per-PDU analytic schedules, which is
   only legal when nothing observes the simulation *between* cells. Trace
   and span output and pcapng records are synthesized from committed plan
   records, timeseries probes evaluate planned state at sample boundaries,
   the profiler's wall clock attributes per event window and its virtual
   clock is charged by [Sync.Server] per batch, and the flight recorder
   watches deliveries, which trains reach too; no observer pins. Fault
   injectors are per-site and are checked at each link/NI, not here, so a
   --fault at one attachment point expands only the affected hop. *)

let forced = ref false
let force_per_cell v = forced := v
let active () = not !forced

let synthesizing () =
  Trace.enabled () || Span.enabled () || Pcapng.enabled ()
