(* A periodic virtual-time sampler over registered probes.

   Components register probes (a name, labels, and a read callback) at
   construction time, exactly like metrics; sampling is driven by the
   simulator's event loop. [Sim.step] calls [sample] at most once per
   fired event, and only once the clock has passed the next sample point,
   so the cadence is [interval] during active phases and degrades to
   one-sample-per-event when events are sparser than the interval (a
   quiescent simulation produces no new information anyway, and catching
   up across a long idle gap would cost time proportional to the gap).

   Probes are generation-scoped: every [Sim.create] bumps
   [Clock.generation], and only probes (re-)registered under the current
   generation are sampled. Components re-created for each sweep point
   re-register (registration replaces the callback, keeping one series
   per identity, mirroring the metrics registry), while probes left over
   from a previous simulator instance stop being read rather than
   reporting stale state.

   Each series is a bounded ring (oldest points dropped, drops counted),
   allocated on the probe's first sample;
   each sample also folds into a [<name>_hw] metrics gauge via set_max, so
   high-water marks survive into the ordinary metrics dump. *)

type labels = (string * string) list

let canon (labels : labels) =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

type kind = Gauge | Rate | Utilization

let kind_name = function
  | Gauge -> "gauge"
  | Rate -> "rate"
  | Utilization -> "utilization"

type probe = {
  p_name : string;
  p_labels : labels;
  p_kind : kind;
  (* the callback receives the sample's cumulative virtual time: probes
     over analytic train-path state (committed plan records describe the
     future) evaluate *at* that instant; plain probes ignore it *)
  mutable p_fn : int -> float;
  mutable p_gen : int;
  (* previous (time, raw value) for Rate/Utilization differencing *)
  mutable p_prev : (int * float) option;
  mutable p_hw : Metrics.Gauge.t option;
  mutable p_drop_ctr : Metrics.Counter.t option;
  mutable p_points : (int * float) array;
      (* ring of [capacity] points, allocated on the first sample: most
         probes of a large fabric are never sampled *)
  mutable p_len : int;
  mutable p_head : int; (* next write position *)
  mutable p_dropped : int;
}

let capacity = 8192
let probes : (string * labels, probe) Hashtbl.t = Hashtbl.create 32
let order : (string * labels) list ref = ref [] (* reversed *)
let enabled_flag = ref false
let interval_ns = ref 10_000 (* 10 µs of simulated time *)
let next_sample = ref 0

let enabled () = !enabled_flag
let interval () = !interval_ns

let set_interval ns =
  if ns <= 0 then invalid_arg "Timeseries.set_interval";
  interval_ns := ns

let register_at ?(kind = Gauge) name labels fn =
  let labels = canon labels in
  let key = (name, labels) in
  match Hashtbl.find_opt probes key with
  | Some p ->
      p.p_fn <- fn;
      p.p_gen <- Clock.generation ();
      p.p_prev <- None
  | None ->
      let p =
        {
          p_name = name;
          p_labels = labels;
          p_kind = kind;
          p_fn = fn;
          p_gen = Clock.generation ();
          p_prev = None;
          p_hw = None;
          p_drop_ctr = None;
          p_points = [||];
          p_len = 0;
          p_head = 0;
          p_dropped = 0;
        }
      in
      Hashtbl.replace probes key p;
      order := key :: !order

let register ?kind name labels fn =
  register_at ?kind name labels (fun _ -> fn ())

(* Ring overwrites are silent data loss (mirrors Trace.note_drop);
   registered lazily so runs that never overflow keep dumps unchanged. *)
let note_point_drop p =
  let c =
    match p.p_drop_ctr with
    | Some c -> c
    | None ->
        let c =
          Metrics.counter
            ~help:"Timeseries points lost to ring-buffer overwrite"
            "timeseries_points_dropped_total"
            (("series", p.p_name) :: p.p_labels)
        in
        p.p_drop_ctr <- Some c;
        c
  in
  Metrics.Counter.inc c

let record p now v =
  if Array.length p.p_points = 0 then
    p.p_points <- Array.make capacity (0, 0.);
  p.p_points.(p.p_head) <- (now, v);
  p.p_head <- (p.p_head + 1) mod capacity;
  if p.p_len < capacity then p.p_len <- p.p_len + 1
  else begin
    p.p_dropped <- p.p_dropped + 1;
    note_point_drop p
  end;
  let hw =
    match p.p_hw with
    | Some g -> g
    | None ->
        let g =
          Metrics.gauge
            ~help:"high-water mark folded back from a timeseries probe"
            (p.p_name ^ "_hw") p.p_labels
        in
        p.p_hw <- Some g;
        g
  in
  Metrics.Gauge.set_max hw v

let sample_probe now p =
  let raw = p.p_fn now in
  match p.p_kind with
  | Gauge -> record p now raw
  | Rate | Utilization -> (
      match p.p_prev with
      | None -> p.p_prev <- Some (now, raw)
      | Some (t0, v0) ->
          if now > t0 then begin
            let dv = raw -. v0 and dt = float_of_int (now - t0) in
            let v =
              match p.p_kind with
              | Rate -> dv /. dt *. 1e9 (* per simulated second *)
              | Utilization -> Float.min 1. (Float.max 0. (dv /. dt))
              | Gauge -> assert false
            in
            p.p_prev <- Some (now, raw);
            record p now v
          end)

(* Called from Sim.step with the cumulative virtual time of the event
   about to fire — before the event's own state mutations, so present
   state is exact at the most recent interval boundary. Each sample
   lands on that boundary's timestamp (a multiple of [interval]) with
   [p_fn] evaluated *at* the boundary, so analytic train-path probes
   report the planned state at that instant rather than at the event
   that happened to trigger the sample. At most one boundary is sampled
   per event: intermediate boundaries inside a long gap are skipped —
   for plain probes they carry no information (state only mutates at
   events), and walking them would cost time proportional to idle
   virtual time (timer tails span tens of virtual seconds). The cadence
   is therefore [interval] while events are denser than the interval and
   degrades to per-event when they are sparser. *)
let on_event now =
  if now >= !next_sample then begin
    let interval = !interval_ns in
    let b = now - (now mod interval) in
    List.iter
      (fun key ->
        let p = Hashtbl.find probes key in
        if p.p_gen = Clock.generation () then sample_probe b p)
      (List.rev !order);
    next_sample := b + interval
  end

(* gauge_fn bridge: every Metrics.gauge_fn registration also becomes a
   Gauge probe, so one registration feeds both the dump-time gauge and
   the sampler. Installed once, on first start. *)
let bridged = ref false

let clear () =
  Hashtbl.reset probes;
  order := [];
  next_sample := 0

let start () =
  if not !bridged then begin
    bridged := true;
    Metrics.on_gauge_fn (fun name labels fn -> register name labels fn)
  end;
  enabled_flag := true

let stop () = enabled_flag := false

(* --- accessors and dumps --------------------------------------------- *)

type series = {
  s_name : string;
  s_labels : labels;
  s_kind : kind;
  s_dropped : int;
  s_points : (int * float) list; (* oldest first *)
}

let points p =
  let out = ref [] in
  for i = p.p_len - 1 downto 0 do
    let idx = (p.p_head - 1 - i + (2 * capacity)) mod capacity in
    out := p.p_points.(idx) :: !out
  done;
  List.rev !out

let series () =
  List.rev_map
    (fun key ->
      let p = Hashtbl.find probes key in
      {
        s_name = p.p_name;
        s_labels = p.p_labels;
        s_kind = p.p_kind;
        s_dropped = p.p_dropped;
        s_points = points p;
      })
    !order

let to_json () =
  let series_json s =
    Json.Obj
      [
        ("name", Json.Str s.s_name);
        ( "labels",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels) );
        ("kind", Json.Str (kind_name s.s_kind));
        ("dropped", Json.Num (float_of_int s.s_dropped));
        ( "points",
          Json.List
            (List.map
               (fun (t, v) ->
                 Json.List [ Json.Num (float_of_int t); Json.Num v ])
               s.s_points) );
      ]
  in
  Json.Obj
    [
      ("interval_ns", Json.Num (float_of_int !interval_ns));
      ("series", Json.List (List.map series_json (series ())));
    ]

let write_json path = Json.write_file path (to_json ())

(* RFC 4180 quoting: a field holding a comma, quote, or newline is wrapped
   in quotes with inner quotes doubled. Label values need this — flow
   labels are "src:dst:vci,vci,..." and would otherwise shift every column
   after them. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let write_csv path =
  let oc = open_out path in
  output_string oc "series,labels,t_ns,value\n";
  List.iter
    (fun s ->
      let labels =
        String.concat ";"
          (List.map (fun (k, v) -> k ^ "=" ^ v) s.s_labels)
      in
      List.iter
        (fun (t, v) ->
          Printf.fprintf oc "%s,%s,%d,%g\n" (csv_field s.s_name)
            (csv_field labels) t v)
        s.s_points)
    (series ());
  close_out oc
