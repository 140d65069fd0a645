(* The trial loop: warm-up trials for a fifth of the requested seconds,
   then measured trials until both five have run and the requested
   seconds have passed, then (when tracing) an untraced and a traced
   trial at a tenth of the size. Every trial starts
   from a collected heap and a zeroed metrics registry, is timed from
   outside around the calls into each layer, and is checked by the
   workload's oracle, the cell-conservation check and, for the committed
   seed, against the expected simulated results. End-to-end numbers come
   from the untraced trials only. *)

open Engine

let now_ns = Workload.now_ns
let deadline = Sim.sec 120
let min_trials = 5

type metric = { name : string; unit : string }

let m name unit = { name; unit }

let end_to_end =
  [
    m "msgs_per_s" "msg/s";
    m "host_s_per_sim_s" "s/s";
    m "setup_s" "s";
    m "alloc_words_per_msg" "words";
    m "peak_heap_mb" "MiB";
  ]

let per_layer =
  [
    m "engine.events_per_msg" "count";
    m "engine.ns_per_event" "ns";
    m "engine.step_ns_p50" "ns";
    m "engine.step_ns_p99" "ns";
    m "engine.cancelled_share" "ratio";
    m "engine.alloc_words_per_event" "words";
    m "engine.major_gcs" "count";
    m "engine.buf_copies_per_msg" "count";
    m "engine.buf_copy_bytes_per_msg" "bytes";
    m "atm.cells_per_msg" "count";
    m "atm.events_per_cell" "count";
    m "atm.cell_drops" "count";
    m "atm.aal5_discards" "count";
    m "atm.undeliverable" "count";
    m "atm.queue_peak_cells" "cells";
    m "ni.pdus_per_msg" "count";
    m "ni.fifo_retries_per_msg" "count";
    m "ni.dma_bytes_per_msg" "bytes";
    m "ni.reassembly_errors" "count";
    m "unet.doorbells_per_msg" "count";
    m "unet.queue_full_retries_per_msg" "count";
    m "unet.rx_drops" "count";
    m "unet.ring_peak" "slots";
    m "uam.retransmissions_per_msg" "count";
    m "uam.duplicates" "count";
    m "uam.replies_per_msg" "count";
    m "cluster.create_s" "s";
    m "cluster.connect_s" "s";
    m "trace.overhead" "ratio";
    m "sim.events" "count";
    m "sim.latency_p50_us" "us";
    m "sim.latency_p99_us" "us";
    m "sim.goodput_mb_s" "MB/s";
    m "sim.generator_lag_us" "us";
  ]

(* ---- small statistics --------------------------------------------- *)

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Python's statistics.quantiles(values, n=4) (the default "exclusive"
   method), so the spreads printed here are the ones a reader recomputes
   from the raw runs. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let mm = n + 1 in
      let j = max 1 (min (n - 1) (i * mm / 4)) in
      let delta = (i * mm) - (j * 4) in
      ((a.(j - 1) *. fi (4 - delta)) +. (a.(j) *. fi delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* exact nearest rank over the first [n] samples *)
let nearest_rank sorted n p =
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

(* ---- the registry, read through its JSON dump --------------------- *)

let samples dump name =
  match Json.member "families" dump with
  | Some (Json.List fams) -> (
      match
        List.find_opt
          (fun f -> Json.member "name" f = Some (Json.Str name))
          fams
      with
      | Some f -> (
          match Json.member "samples" f with
          | Some (Json.List ss) ->
              List.filter_map
                (fun s ->
                  match (Json.member "labels" s, Json.member "value" s) with
                  | Some l, Some (Json.Num v) -> Some (l, v)
                  | _ -> None)
                ss
          | _ -> [])
      | None -> [])
  | _ -> []

let label k l = match Json.member k l with Some (Json.Str v) -> v | _ -> ""

let sum ?(where = fun _ -> true) dump name =
  List.fold_left
    (fun acc (l, v) -> if where l then acc +. v else acc)
    0. (samples dump name)

let peak dump name =
  List.fold_left (fun acc (_, v) -> Float.max acc v) 0. (samples dump name)

(* Cell conservation over the whole fabric, from the public counters:
   every cell a link delivered into a switch was routed, dropped or
   unroutable there, every routed cell was delivered or dropped by its
   output link, and no link has anything left queued. *)
let conservation dump net =
  let dir d l = label "dir" l = d in
  let sent d = sum ~where:(dir d) dump "atm_link_cells_sent_total" in
  let up = sent "up" and trunk = sent "trunk" and down = sent "down" in
  let out_drops =
    sum ~where:(fun l -> not (dir "up" l)) dump "atm_link_cells_dropped_total"
  in
  let routed = sum dump "atm_switch_cells_routed_total" in
  let sw_drops = sum dump "atm_switch_cell_drops_total" in
  let unroutable = sum dump "atm_switch_unroutable_total" in
  let queued = ref 0 in
  for host = 0 to Atm.Network.host_count net - 1 do
    queued :=
      !queued
      + Atm.Link.queue_length (Atm.Network.uplink net ~host)
      + Atm.Link.queue_length (Atm.Network.downlink net ~host)
  done;
  for sw = 0 to Atm.Network.switch_count net - 1 do
    for port = 0 to Atm.Switch.ports (Atm.Network.switch_at net sw) - 1 do
      match Atm.Network.port_dest net ~sw ~port with
      | Some (`Switch _) -> (
          match Atm.Network.output_link net ~sw ~port with
          | Some l -> queued := !queued + Atm.Link.queue_length l
          | None -> ())
      | _ -> ()
    done
  done;
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      ( up +. trunk = routed +. sw_drops +. unroutable,
        Printf.sprintf
          "cells into switches (%.0f) <> routed + dropped + unroutable (%.0f)"
          (up +. trunk)
          (routed +. sw_drops +. unroutable) );
      ( routed = down +. trunk +. out_drops,
        Printf.sprintf
          "cells routed (%.0f) <> delivered by output links + dropped (%.0f)"
          routed
          (down +. trunk +. out_drops) );
      (!queued = 0, Printf.sprintf "%d cells still queued at run end" !queued);
    ]

(* ---- one trial ---------------------------------------------------- *)

type trial = {
  acc : Workload.acc;
  failed : int;
  errors : string list;
  setup_ns : int;
  run_ns : int;
  alloc_words : float;
  steps : int array;  (** traced: host ns of each Sim.step, sorted *)
  spans : Workload.span list;
  counts : (string * float) list;
      (** per-layer values this trial measured; the traced-only ones are
          added by [run] *)
  sim : (string * float) list;  (** simulated results: checked, not ranked *)
}

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

(* Drive the event loop one [Sim.step] at a time, timing each on the
   monotonic clock (CPU time is too coarse for single events). *)
let step_loop sim =
  let buf = ref (Array.make 4096 0) and n = ref 0 in
  let rec go () =
    if Sim.now sim <= deadline then begin
      let t0 = Selfprof.now_ns () in
      if Sim.step sim then begin
        let dt = Selfprof.now_ns () - t0 in
        if !n = Array.length !buf then begin
          let b = Array.make (2 * !n) 0 in
          Array.blit !buf 0 b 0 !n;
          buf := b
        end;
        !buf.(!n) <- dt;
        incr n;
        go ()
      end
    end
  in
  go ();
  let a = Array.sub !buf 0 !n in
  Array.sort compare a;
  a

let sim_results ~open_loop (acc : Workload.acc) events =
  let n = acc.ok in
  let lat = Array.sub acc.lat 0 n in
  Array.sort compare lat;
  let us v = fi v /. 1e3 in
  [
    ("sim.events", fi events);
    ("sim.latency_p50_us", us (nearest_rank lat n 0.50));
    ("sim.latency_p99_us", us (nearest_rank lat n 0.99));
    ("sim.goodput_mb_s", div (fi acc.bytes /. 1e6) (Sim.to_sec acc.done_at));
  ]
  @ if open_loop then [ ("sim.generator_lag_us", us acc.lag) ] else []

let layer_counts dump (acc : Workload.acc) ~events ~cancelled ~alloc ~gcs
    ~run_ns ~create_ns ~connect_ns =
  let msgs = fi acc.ok and ev = fi events in
  let s name = sum dump name in
  let up_link = fun l -> label "dir" l = "up" in
  let up = sum ~where:up_link dump "atm_link_cells_sent_total" in
  (* An uplink counts both injected losses and refusals by the full host
     FIFO, which the NI retries; the fault layer tells them apart. *)
  let up_refused = sum ~where:up_link dump "atm_link_cells_dropped_total" in
  let up_injected =
    sum dump "fault_injected_total" ~where:(fun l ->
        label "kind" l = "drop"
        && String.starts_with ~prefix:"link.up." (label "site" l))
  in
  let lost =
    s "atm_switch_cell_drops_total"
    +. sum dump "atm_link_cells_dropped_total" ~where:(fun l -> not (up_link l))
    +. up_injected
  in
  [
    ("engine.events_per_msg", div ev msgs);
    ("engine.ns_per_event", div (fi run_ns) ev);
    ("engine.cancelled_share", div (fi cancelled) (ev +. fi cancelled));
    ("engine.alloc_words_per_event", div alloc ev);
    ("engine.major_gcs", fi gcs);
    ("engine.buf_copies_per_msg", div (s "buf_copies_total") msgs);
    ("engine.buf_copy_bytes_per_msg", div (s "buf_copy_bytes_total") msgs);
    ("atm.cells_per_msg", div up msgs);
    ("atm.events_per_cell", div ev up);
    ("atm.cell_drops", lost);
    ("atm.aal5_discards", s "aal5_pdus_discarded_total");
    ("atm.undeliverable", s "atm_fabric_undeliverable_total");
    ("atm.queue_peak_cells", peak dump "atm_switch_queue_peak");
    ("ni.pdus_per_msg", div (s "ni_pdus_sent_total") msgs);
    ("ni.fifo_retries_per_msg", div (up_refused -. up_injected) msgs);
    ("ni.dma_bytes_per_msg", div (s "ni_dma_bytes_total") msgs);
    ("ni.reassembly_errors", s "ni_reassembly_errors_total");
    ("unet.doorbells_per_msg", div (s "ni_doorbells_total") msgs);
    ("unet.queue_full_retries_per_msg", div (fi acc.retries) msgs);
    ("unet.rx_drops", s "unet_rx_dropped_total");
    ("unet.ring_peak", peak dump "unet_ring_high_water");
    ("uam.retransmissions_per_msg", div (s "uam_retransmissions_total") msgs);
    ("uam.duplicates", s "uam_duplicates_total");
    ("uam.replies_per_msg", div (s "uam_replies_total") msgs);
    ("cluster.create_s", fi create_ns /. 1e9);
    ("cluster.connect_s", fi connect_ns /. 1e9);
  ]

let run_trial ~open_loop ~traced ~attempted build =
  Metrics.reset ();
  Gc.full_major ();
  let ctx = Workload.ctx ~traced in
  let t0 = now_ns () in
  match build ctx with
  | exception e ->
      let acc = Workload.acc attempted in
      {
        acc;
        failed = attempted;
        errors = [ "set-up raised " ^ Printexc.to_string e ];
        setup_ns = now_ns () - t0;
        run_ns = 0;
        alloc_words = 0.;
        steps = [||];
        spans = ctx.spans;
        counts = [];
        sim = [];
      }
  | (b : Workload.built) ->
      let t1 = now_ns () in
      let fired0 = Sim.events_fired () in
      let cancelled0 = Sim.events_cancelled () in
      let alloc0 = alloc_words () and gcs0 = major_gcs () in
      let steps, loop_error =
        match
          if traced then step_loop b.sim
          else begin
            Sim.run ~until:deadline b.sim;
            [||]
          end
        with
        | steps -> (steps, [])
        | exception e -> ([||], [ "event loop raised " ^ Printexc.to_string e ])
      in
      let t2 = now_ns () in
      let events = Sim.events_fired () - fired0 in
      let cancelled = Sim.events_cancelled () - cancelled0 in
      let alloc = alloc_words () -. alloc0 and gcs = major_gcs () - gcs0 in
      b.finish ();
      let acc = b.acc in
      let proc_errors =
        List.filter_map
          (fun p ->
            match Proc.state p with
            | Proc.Failed e ->
                Some
                  (Printf.sprintf "process %s raised %s" (Proc.name p)
                     (Printexc.to_string e))
            | _ -> None)
          b.procs
      in
      let dump = Json.of_string (Metrics.to_json_string ()) in
      let errors =
        List.rev acc.errors @ loop_error @ proc_errors
        @
        if acc.ok < acc.attempted then
          [
            Printf.sprintf "%d of %d operations did not complete"
              (acc.attempted - acc.ok) acc.attempted;
          ]
        else if loop_error = [] then conservation dump b.net
        else []
      in
      {
        acc;
        failed = max (acc.attempted - acc.ok) (min acc.attempted acc.bad);
        errors;
        setup_ns = t1 - t0;
        run_ns = t2 - t1;
        alloc_words = alloc;
        steps;
        spans = ctx.spans;
        counts =
          layer_counts dump acc ~events ~cancelled ~alloc ~gcs ~run_ns:(t2 - t1)
            ~create_ns:ctx.create_ns ~connect_ns:ctx.connect_ns;
        sim = sim_results ~open_loop acc events;
      }

let run_s t = fi t.run_ns /. 1e9

let e2e_values t =
  [
    ("msgs_per_s", div (fi t.acc.ok) (run_s t));
    ("host_s_per_sim_s", div (run_s t) (Sim.to_sec t.acc.done_at));
    ("setup_s", fi t.setup_ns /. 1e9);
    ("alloc_words_per_msg", div t.alloc_words (fi t.acc.ok));
  ]

(* ---- the committed seed-1 results --------------------------------- *)

let expected_seed = 1

let expected workload =
  match Json.member workload (Json.of_string Expected_data.text) with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
        kvs
  | _ -> []

let check_expected workload sim =
  List.filter_map
    (fun (k, want) ->
      match List.assoc_opt k sim with
      | Some got when got = want -> None
      | got ->
          Some
            (Printf.sprintf "%s = %s, committed %.17g" k
               (match got with
               | Some g -> Printf.sprintf "%.17g" g
               | None -> "missing")
               want))
    (expected workload)

(* ---- the traced run's file ---------------------------------------- *)

(* Chrome trace_event JSON: one complete event per set-up call, an async
   begin/end pair per sampled message (host time, with the virtual
   instants as arguments), and the Sim.step host-time histogram in
   power-of-two buckets. *)
let write_trace path ~workload ~seed (t : trial) =
  let open Json in
  let origin =
    List.fold_left
      (fun acc (s : Workload.span) -> min acc s.s_t0)
      max_int t.spans
  in
  let us ns = Num (fi (ns - origin) /. 1e3) in
  let event (s : Workload.span) =
    if s.s_id < 0 then
      [
        Obj
          [
            ("name", Str s.s_name);
            ("cat", Str "setup");
            ("ph", Str "X");
            ("ts", us s.s_t0);
            ("dur", Num (fi (s.s_t1 - s.s_t0) /. 1e3));
            ("pid", Num 1.);
            ("tid", Num 1.);
          ];
      ]
    else
      let edge ph ts vt =
        Obj
          [
            ("name", Str s.s_name);
            ("cat", Str "msg");
            ("ph", Str ph);
            ("id", Num (fi s.s_id));
            ("ts", us ts);
            ("pid", Num 1.);
            ("tid", Num 2.);
            ("args", Obj [ ("virtual_us", Num (Sim.to_us vt)) ]);
          ]
      in
      [ edge "b" s.s_t0 s.s_vt0; edge "e" s.s_t1 s.s_vt1 ]
  in
  let buckets = Array.make 40 0 in
  Array.iter
    (fun ns ->
      let rec bucket i =
        if i >= 39 || ns <= 1 lsl i then i else bucket (i + 1)
      in
      let i = bucket 0 in
      buckets.(i) <- buckets.(i) + 1)
    t.steps;
  let hist =
    List.filter_map
      (fun i ->
        if buckets.(i) = 0 then None
        else
          Some
            (Obj
               [
                 ("le_ns", Num (fi (1 lsl i)));
                 ("steps", Num (fi buckets.(i)));
               ]))
      (List.init 40 Fun.id)
  in
  write_file path
    (Obj
       [
         ("workload", Str workload);
         ("seed", Num (fi seed));
         ("traceEvents", List (List.concat_map event (List.rev t.spans)));
         ("engine.step", List hist);
       ])

(* ---- the run ------------------------------------------------------ *)

type report = {
  detail : Json.t;  (** every metric, with median / quartiles / n *)
  result : Json.t;
      (** the one-line summary: correct, attempted, failed, metrics *)
  errors : string list;  (** empty when every check passed *)
}

let metric_json (m : metric) values =
  let q1, med, q3 = quartiles values in
  Json.Obj
    [
      ("median", Json.Num med);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("n", Json.Num (fi (List.length values)));
      ("unit", Json.Str m.unit);
    ]

let value_json (m : metric) v =
  Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ]

let column name trials = List.map (fun t -> List.assoc name t) trials

let run ?fault ?params ?(trials = min_trials) ?(seconds = 0.) ?trace ~seed
    (w : Workload.t) =
  let params = Option.value params ~default:w.full in
  let open_loop = w.open_loop in
  let trial ~traced p =
    run_trial ~open_loop ~traced ~attempted:p.Workload.msgs
      (w.prepare ~seed ?fault p)
  in
  (* at least [n] trials, and more until [secs] of wall time have passed *)
  let repeat n secs =
    let start = Selfprof.now_ns () in
    let rec go acc k =
      if k >= n && fi (Selfprof.now_ns () - start) /. 1e9 >= secs then
        List.rev acc
      else go (trial ~traced:false params :: acc) (k + 1)
    in
    go [] 0
  in
  (* The warm-up runs a fifth as long as the measurement: a process that
     starts on a machine that was idle runs slow for its first seconds. *)
  let warmups = repeat 1 (seconds /. 5.) in
  let warmup = List.hd warmups in
  let measured = repeat trials seconds in
  (* the traced trial, at a tenth of the size, after an untraced trial
     of the same size that is its control for trace.overhead *)
  let traced =
    Option.map
      (fun _ ->
        let small = { params with msgs = max 1 (params.Workload.msgs / 10) } in
        let control = trial ~traced:false small in
        (control, trial ~traced:true small))
      trace
  in
  let peak_heap_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.
  in
  let all =
    warmups @ measured
    @ match traced with Some (c, t) -> [ c; t ] | None -> []
  in
  let attempted = List.fold_left (fun a t -> a + t.acc.attempted) 0 all in
  let errors = List.concat_map (fun (t : trial) -> t.errors) all in
  (* simulated results must repeat exactly across same-size trials *)
  let first_sim = warmup.sim in
  let errors =
    errors
    @ (if List.for_all (fun t -> t.sim = first_sim) (warmups @ measured) then []
       else [ "simulated results differ between trials of the same seed" ])
    @
    if seed = expected_seed && params = w.full && fault = None then
      check_expected w.name first_sim
    else []
  in
  let correct = errors = [] in
  let failed =
    if correct then 0
    else
      let f = List.fold_left (fun a t -> a + t.failed) 0 all in
      (* a run-level mismatch fails every message *)
      if f = 0 then attempted else f
  in
  let e2e_rows = List.map e2e_values measured in
  let e2e =
    List.map
      (fun (m : metric) ->
        ( m,
          if m.name = "peak_heap_mb" then [ peak_heap_mb ]
          else column m.name e2e_rows ))
      end_to_end
  in
  let layer_rows = List.map (fun t -> t.counts @ t.sim) measured in
  let traced_only =
    match traced with
    | None -> []
    | Some (control, t) ->
        let n = Array.length t.steps in
        let rate t = List.assoc "msgs_per_s" (e2e_values t) in
        [
          ("engine.step_ns_p50", fi (nearest_rank t.steps n 0.50));
          ("engine.step_ns_p99", fi (nearest_rank t.steps n 0.99));
          ("trace.overhead", div (rate control) (rate t));
        ]
  in
  let layer_value name =
    match List.assoc_opt name traced_only with
    | Some v -> Some v
    | None -> (
        match List.assoc_opt name (List.hd layer_rows) with
        | Some _ -> Some (median (column name layer_rows))
        | None ->
            (* generator lag is only defined for open loops *)
            if name = "sim.generator_lag_us" then Some 0. else None)
  in
  let layers =
    List.filter_map
      (fun (m : metric) -> Option.map (fun v -> (m, v)) (layer_value m.name))
      per_layer
  in
  let pingpong_error =
    if w.name = "raw_pingpong" then
      (* the paper's single-cell raw U-Net round trip is 65 us *)
      [
        ( "paper_rtt_error_pct",
          Json.Num
            (100.
            *. (List.assoc "sim.latency_p50_us" first_sim -. 65.)
            /. 65.) );
      ]
    else []
  in
  (match (trace, traced) with
  | Some path, Some (_, t) -> write_trace path ~workload:w.name ~seed t
  | _ -> ());
  let failed_share = div (fi failed) (fi attempted) in
  let detail =
    Json.Obj
      ([
         ("workload", Json.Str w.name);
         ("seed", Json.Num (fi seed));
         ("trials", Json.Num (fi (List.length measured)));
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (fi attempted));
         ("failed", Json.Num (fi failed));
         ("failed_share", Json.Num failed_share);
         ( "e2e",
           Json.Obj
             (List.map (fun (m, vs) -> (m.name, metric_json m vs)) e2e) );
         ( "layers",
           Json.Obj
             (List.map (fun (m, v) -> (m.name, value_json m v)) layers) );
         ( "sim",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) first_sim) );
         ("errors", Json.List (List.map (fun e -> Json.Str e) errors));
       ]
      @ pingpong_error)
  in
  let summary_metrics =
    if trace = None then List.map (fun (m, vs) -> (m, median vs)) e2e
    else layers
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (fi attempted));
        ("failed", Json.Num (fi failed));
        ( "metrics",
          Json.Obj
            (List.map (fun (m, v) -> (m.name, value_json m v)) summary_metrics)
        );
      ]
  in
  { detail; result; errors }
