(* A bounded flight recorder with a stall watchdog.

   Sender-side protocols (UAM, TCP) report per-flow pending state — "I
   have unacked data" — and receivers report per-flow deliveries; queue
   owners register snapshot callbacks that serialize their current state
   (ring occupancy, port queues, window contents) to JSON on demand. The
   watchdog, ticked from the simulator's event loop, declares a flow
   stalled when it has had unacked data for longer than [deadline] with
   *nothing* delivered — on that flow or anywhere else — since the
   pending epoch began.

   The delivery conditions are what separate a genuinely black-holed
   sender from the benign end-of-run shape where a final message stays
   unacked because its receiver finished and stopped polling: there the
   data (and its retransmitted duplicates) still *arrives* in the
   receiver's rings — the mux counts those as global deliveries even
   when no application ever consumes them — which exonerates the flow,
   whereas a black-holed flow's traffic vanishes and the whole fabric
   goes quiet with data still owed. Flows
   are generation-scoped like timeseries probes, so leftover pending
   state from a previous simulator instance can't trigger on a later one.

   On trigger (stall, or an explicit [trigger ~reason] for failed
   experiment checks) the recorder disarms — exactly one bundle per
   arming — and dumps a post-mortem bundle: recent trace events, every
   registered snapshot, the metrics registry, timeseries so far, the
   profile so far, and a manifest with the reason and flow table. The
   bundle is written as files under [dir] and kept in memory for tests. *)

type flow = {
  mutable fl_pending : int;
  mutable fl_since : int; (* when the current pending epoch began *)
  mutable fl_delivered : int; (* last delivery on this flow; -1 = never *)
  mutable fl_gave_up : bool;
  mutable fl_gen : int;
}

type trigger_info = { tr_reason : string; tr_at : int; tr_dir : string }

let armed_flag = ref false
let bundle_dir = ref "postmortem"
let deadline_ns = ref 2_000_000_000 (* 2 simulated seconds *)
(* trailing trace events a bundle keeps *)
let recent_events = 256
let flows : (string, flow) Hashtbl.t = Hashtbl.create 16
let flow_order : string list ref = ref [] (* reversed *)
let snapshots : (string, unit -> Json.t) Hashtbl.t = Hashtbl.create 16
let snapshot_order : string list ref = ref [] (* reversed *)
let last_delivery_global = ref (-1)
let last_trigger_ref : trigger_info option ref = ref None
let trigger_count_ref = ref 0
let last_bundle_ref : (string * Json.t) list ref = ref []

let armed () = !armed_flag

let clear_flows () =
  Hashtbl.reset flows;
  flow_order := [];
  last_delivery_global := -1

let start ?(dir = "postmortem") ?(deadline = 2_000_000_000) () =
  bundle_dir := dir;
  deadline_ns := deadline;
  clear_flows ();
  last_trigger_ref := None;
  trigger_count_ref := 0;
  last_bundle_ref := [];
  armed_flag := true

let stop () = armed_flag := false
let last_trigger () = !last_trigger_ref
let trigger_count () = !trigger_count_ref
let last_bundle () = !last_bundle_ref

let register_snapshot name fn =
  if not (Hashtbl.mem snapshots name) then
    snapshot_order := name :: !snapshot_order;
  Hashtbl.replace snapshots name fn

let flow key =
  match Hashtbl.find_opt flows key with
  | Some fl ->
      if fl.fl_gen <> Clock.generation () then begin
        (* stale state from a previous simulator instance: restart it *)
        fl.fl_gen <- Clock.generation ();
        fl.fl_pending <- 0;
        fl.fl_since <- Clock.cumulative ();
        fl.fl_delivered <- -1;
        fl.fl_gave_up <- false
      end;
      fl
  | None ->
      let fl =
        {
          fl_pending = 0;
          fl_since = Clock.cumulative ();
          fl_delivered = -1;
          fl_gave_up = false;
          fl_gen = Clock.generation ();
        }
      in
      Hashtbl.replace flows key fl;
      flow_order := key :: !flow_order;
      fl

let sender_pending ~key n =
  if !armed_flag then begin
    let fl = flow key in
    (* any change marks a fresh epoch: growth restarts the clock only on
       the 0 -> n edge, shrinkage (ack progress) always does *)
    if (fl.fl_pending = 0 && n > 0) || n < fl.fl_pending then
      fl.fl_since <- Clock.cumulative ();
    fl.fl_pending <- n
  end

let flow_delivered ~key =
  if !armed_flag then begin
    let now = Clock.cumulative () in
    (flow key).fl_delivered <- now;
    last_delivery_global := now
  end

let note_delivery () =
  if !armed_flag then last_delivery_global := Clock.cumulative ()

let gave_up ~key = if !armed_flag then (flow key).fl_gave_up <- true

(* --- the post-mortem bundle ------------------------------------------ *)

let arg_json = function
  | Trace.Int i -> Json.Num (float_of_int i)
  | Trace.Float f -> Json.Num f
  | Trace.Str s -> Json.Str s

let event_json (e : Trace.event) =
  Json.Obj
    [
      ("ts", Json.Num (float_of_int e.ts));
      ("cat", Json.Str (Trace.category_name e.cat));
      ("name", Json.Str e.name);
      ("tid", Json.Num (float_of_int e.tid));
      ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) e.args));
    ]

let recent_events_json () =
  let evs = Trace.events () in
  let n = List.length evs in
  let tail =
    if n <= recent_events then evs
    else List.filteri (fun i _ -> i >= n - recent_events) evs
  in
  Json.List (List.map event_json tail)

let snapshots_json () =
  Json.Obj
    (List.rev_map
       (fun name ->
         let v =
           try (Hashtbl.find snapshots name) ()
           with exn -> Json.Str ("snapshot failed: " ^ Printexc.to_string exn)
         in
         (name, v))
       !snapshot_order)

let flows_json now =
  Json.Obj
    (List.rev_map
       (fun key ->
         let fl = Hashtbl.find flows key in
         ( key,
           Json.Obj
             [
               ("pending", Json.Num (float_of_int fl.fl_pending));
               ("since_ns", Json.Num (float_of_int fl.fl_since));
               ( "stalled_ns",
                 Json.Num
                   (float_of_int
                      (if fl.fl_pending > 0 then now - fl.fl_since else 0))
               );
               ("last_delivery_ns", Json.Num (float_of_int fl.fl_delivered));
               ("gave_up", Json.Bool fl.fl_gave_up);
               ( "current_generation",
                 Json.Bool (fl.fl_gen = Clock.generation ()) );
             ] ))
       !flow_order)

let build_bundle ~reason now =
  let manifest =
    Json.Obj
      [
        ("reason", Json.Str reason);
        ("virtual_time_ns", Json.Num (float_of_int now));
        ("deadline_ns", Json.Num (float_of_int !deadline_ns));
        ( "last_delivery_ns",
          Json.Num (float_of_int !last_delivery_global) );
        ("flows", flows_json now);
      ]
  in
  [
    ("manifest", manifest);
    ("snapshots", snapshots_json ());
    ("events", recent_events_json ());
  ]

let write_bundle bundle =
  try
    (try Sys.mkdir !bundle_dir 0o755 with Sys_error _ -> ());
    List.iter
      (fun (name, json) ->
        Json.write_file (Filename.concat !bundle_dir (name ^ ".json")) json)
      bundle;
    (* textual companions from the other telemetry registries *)
    let write name s =
      let oc = open_out (Filename.concat !bundle_dir name) in
      output_string oc s;
      close_out oc
    in
    write "metrics.prom" (Metrics.to_prometheus_string ());
    if Timeseries.enabled () then
      Json.write_file
        (Filename.concat !bundle_dir "timeseries.json")
        (Timeseries.to_json ());
    if Profile.(enabled Virtual) then
      write "profile.folded" Profile.(to_folded_string Virtual);
    if Span.enabled () then
      Span.write_file (Filename.concat !bundle_dir "spans.json")
  with Sys_error msg ->
    Logs.err (fun m -> m "Recorder: cannot write post-mortem bundle: %s" msg)

let do_trigger ~reason =
  armed_flag := false;
  let now = Clock.cumulative () in
  let bundle = build_bundle ~reason now in
  last_bundle_ref := bundle;
  last_trigger_ref :=
    Some { tr_reason = reason; tr_at = now; tr_dir = !bundle_dir };
  incr trigger_count_ref;
  write_bundle bundle;
  Logs.warn (fun m ->
      m "Recorder: post-mortem at t=%dns (%s) -> %s" now reason !bundle_dir)

let trigger ~reason = if !armed_flag then do_trigger ~reason

let stalled_flow now =
  let found = ref None in
  Hashtbl.iter
    (fun key fl ->
      if
        !found = None
        && fl.fl_gen = Clock.generation ()
        && fl.fl_pending > 0
        && fl.fl_delivered < fl.fl_since
        (* "zero deliveries while senders have unacked data": anything
           delivered anywhere — even a retransmitted duplicate landing in
           a ring nobody polls anymore — since this flow's pending epoch
           began proves the fabric still works; a sender abandoned by a
           finished receiver is a ragged end, not a wedged run *)
        && !last_delivery_global < fl.fl_since
        && now - fl.fl_since >= !deadline_ns
      then found := Some (key, fl))
    flows;
  !found

let tick now =
  if !armed_flag then
    match stalled_flow now with
    | None -> ()
    | Some (key, fl) ->
        do_trigger
          ~reason:
            (Printf.sprintf
               "no progress: flow %s has %d unacked message(s) for %dns \
                with no delivery%s"
               key fl.fl_pending (now - fl.fl_since)
               (if fl.fl_gave_up then " (sender gave up)" else ""))
