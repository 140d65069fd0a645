(* Causal per-message spans over the virtual clock.

   A span is minted when a message enters the system (UAM send, TCP
   segment emission, raw descriptor push) and its context — a (trace id,
   span id) pair — rides the message's bytes through every layer:
   descriptor, mux, NI, AAL5 cells, switch ports, and back up the
   receive path. Layers do not open or close anything; they stamp
   *milestones* (marks) onto the span as the bytes pass. Phase
   attribution is derived afterwards from the milestone deltas, so the
   hot path stays a couple of array writes.

   Like Trace and Metrics this store is process-global: simulators are
   created deep inside library code and exactly one is live at a time,
   so [Sim.create] registers its clock here. *)

type ctx = { trace_id : int; span_id : int; minted_at : int }

type mark =
  | Doorbell
  | Nic_tx
  | Injected
  | Link_tx
  | Switch_in
  | Switch_out
  | Rx_cell
  | Demuxed
  | Popped
  | Dispatched
  | Dropped

let mark_index = function
  | Doorbell -> 0
  | Nic_tx -> 1
  | Injected -> 2
  | Switch_in -> 3
  | Switch_out -> 4
  | Link_tx -> 5
  | Rx_cell -> 6
  | Demuxed -> 7
  | Popped -> 8
  | Dispatched -> 9
  | Dropped -> 10

let n_marks = 11

let mark_name = function
  | Doorbell -> "doorbell"
  | Nic_tx -> "nic_tx"
  | Injected -> "injected"
  | Link_tx -> "link_tx"
  | Switch_in -> "switch_in"
  | Switch_out -> "switch_out"
  | Rx_cell -> "rx_cell"
  | Demuxed -> "demuxed"
  | Popped -> "popped"
  | Dispatched -> "dispatched"
  | Dropped -> "dropped"

(* The phase a milestone *ends*, in canonical data-path order. Marks use
   replacement semantics (the latest write wins — e.g. [Link_tx] fires on
   the uplink and again on the switch's output link), and phases are
   computed only from the final values, walking consecutive *present*
   milestones so the deltas telescope: they sum exactly to
   last-milestone − mint time. A missing milestone contributes zero and
   its time folds into the next present phase. *)
let milestones =
  [|
    (Doorbell, "send_cpu");
    (Nic_tx, "doorbell_to_nic");
    (Injected, "nic_tx");
    (Switch_in, "wire_up");
    (Switch_out, "switch_transit");
    (Link_tx, "switch_queue");
    (Rx_cell, "wire_down");
    (Demuxed, "rx_demux");
    (Popped, "ring_wait");
    (Dispatched, "dispatch");
  |]

let phase_names = Array.to_list (Array.map snd milestones)

(* [Dropped] is deliberately absent from [milestones]: a fault can kill a
   mid-PDU cell whose EOP still lands milestones later, and a
   phase-attributed drop would then yield a negative delta. It is exported
   with the other marks but contributes no phase. *)
let export_marks = Array.append (Array.map fst milestones) [| Dropped |]
let no_mark = min_int

type span = {
  id : int;
  trace_id : int;
  parent : int option;
  name : string;
  host : int;
  minted : int; (* virtual ns at mint *)
  marks : int array; (* indexed by mark_index; no_mark when unset *)
  mutable views : (mark -> int option) list;
      (* the fabric milestones of the span's PDUs, read at export *)
  mutable observed : bool; (* histograms fed at most once per span *)
}

let on = ref false
let next_id = ref 0
let store : (int, span) Hashtbl.t = Hashtbl.create 256
let order : span list ref = ref [] (* newest first *)
let enabled () = !on

let start () =
  Hashtbl.reset store;
  order := [];
  next_id := 0;
  on := true

let stop () = on := false

let clear () =
  Hashtbl.reset store;
  order := [];
  next_id := 0

let mint ~(parent : ctx option) ~host name =
  incr next_id;
  let id = !next_id in
  let trace_id, parent =
    match parent with
    | None -> (id, None)
    | Some p -> (p.trace_id, Some p.span_id)
  in
  let minted = Clock.now () in
  (* when collection is off, mint a context but retain nothing — hot
     paths may mint per message and must not grow the store. The mint
     time always rides the context so the latency sketch works with
     collection off. *)
  if !on then begin
    let s =
      {
        id;
        trace_id;
        parent;
        name;
        host;
        minted;
        marks = Array.make n_marks no_mark;
        views = [];
        observed = false;
      }
    in
    Hashtbl.replace store id s;
    order := s :: !order
  end;
  { trace_id; span_id = id; minted_at = minted }

let root ?(host = 0) name = mint ~parent:None ~host name
let child ?(host = 0) name parent = mint ~parent:(Some parent) ~host name

(* Flow events stitch the span's milestones into the Chrome trace so
   Perfetto draws an arrow from the send side to the receive side of the
   same message. The flow id is the span id. *)
let emit_flow s m =
  let name = "flow:" ^ s.name in
  match m with
  | Doorbell -> Trace.flow_start ~tid:s.host ~id:s.id Trace.Desc name
  | Popped -> Trace.flow_end ~tid:s.host ~id:s.id Trace.Desc name
  | _ -> ()

let span_of = function
  | Some { span_id; _ } -> Hashtbl.find_opt store span_id
  | None -> None

let mark ctx m =
  if !on then
    match span_of ctx with
    | None -> ()
    | Some s ->
        s.marks.(mark_index m) <- Clock.now ();
        if Trace.enabled () then emit_flow s m

let attach ctx view =
  match span_of ctx with Some s -> s.views <- view :: s.views | None -> ()

(* --- per-message latency sketch -------------------------------------- *)

(* Always on: every context carries its mint time, so message latency
   (mint -> rx-ring delivery) folds into a bounded-memory sketch whether
   or not span collection runs. Registered lazily on the first delivery,
   like Trace's drop counter, so runs with no deliveries keep their
   metric dumps unchanged. *)
let latency_sketch = ref None

let latency () =
  match !latency_sketch with
  | Some s -> s
  | None ->
      let s =
        Metrics.sketch
          ~help:
            "Per-message latency from mint (API send) to rx-ring delivery \
             (ns), as a 1% relative-error quantile sketch"
          "message_latency_ns" []
      in
      latency_sketch := Some s;
      s

let observe_latency ctx =
  match ctx with
  | None -> ()
  | Some { minted_at; _ } ->
      Metrics.Sketch.observe (latency ())
        (float_of_int (Clock.now () - minted_at))

let spans () = List.rev !order
let count () = Hashtbl.length store
(* A mark's value is the latest of the span's own stamp and its views'. *)
let mark_at s m =
  List.fold_left
    (fun t view -> match view m with Some v when v > t -> v | _ -> t)
    s.marks.(mark_index m) s.views

let mark_time s m =
  let t = mark_at s m in
  if t = no_mark then None else Some t

(* --- phase attribution ---------------------------------------------- *)

(* [(phase, delta_ns)] for the milestones present on [s]; deltas
   telescope to (last present milestone − minted). *)
let phases s =
  let prev = ref s.minted in
  Array.to_list milestones
  |> List.filter_map (fun (m, name) ->
         let t = mark_at s m in
         if t = no_mark then None
         else begin
           let d = t - !prev in
           prev := t;
           Some (name, d)
         end)

let journey s =
  let last =
    Array.fold_left (fun acc m -> max acc (mark_at s m)) no_mark export_marks
  in
  if last = no_mark then None else Some (last - s.minted)

let phase_hist =
  let tbl : (string, Metrics.Histogram.t) Hashtbl.t = Hashtbl.create 16 in
  fun phase ->
    match Hashtbl.find_opt tbl phase with
    | Some h -> h
    | None ->
        let h =
          Metrics.histogram
            ~help:"Per-message latency attributed to a data-path phase (ns)"
            "span_phase_ns"
            [ ("phase", phase) ]
        in
        Hashtbl.replace tbl phase h;
        h

(* Aggregate attribution over every completed span (one that reached at
   least one milestone). Feeds the per-phase histograms exactly once per
   span, however often it is called. *)
type agg = { phase : string; p_count : int; total_ns : int }

let attribution () =
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ps = phases s in
      if ps <> [] && not s.observed then begin
        s.observed <- true;
        List.iter
          (fun (p, d) -> Metrics.Histogram.observe (phase_hist p) (float_of_int d))
          ps
      end;
      List.iter
        (fun (p, d) ->
          let c, t =
            Option.value ~default:(0, 0) (Hashtbl.find_opt totals p)
          in
          Hashtbl.replace totals p (c + 1, t + d))
        ps)
    (spans ());
  List.filter_map
    (fun phase ->
      match Hashtbl.find_opt totals phase with
      | None -> None
      | Some (c, t) -> Some { phase; p_count = c; total_ns = t })
    phase_names

let pp_attribution fmt () =
  let rows = attribution () in
  let grand = List.fold_left (fun a r -> a + r.total_ns) 0 rows in
  Format.fprintf fmt "%-16s %8s %12s %10s@." "phase" "spans" "total_us"
    "mean_us";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-16s %8d %12.2f %10.2f@." r.phase r.p_count
        (float_of_int r.total_ns /. 1e3)
        (float_of_int r.total_ns /. float_of_int r.p_count /. 1e3))
    rows;
  Format.fprintf fmt "%-16s %8s %12.2f@." "total" ""
    (float_of_int grand /. 1e3)

(* --- span tree JSON export ------------------------------------------ *)

let add_span b s =
  Buffer.add_string b (Printf.sprintf "{\"id\":%d,\"trace_id\":%d" s.id s.trace_id);
  (match s.parent with
  | None -> ()
  | Some p -> Buffer.add_string b (Printf.sprintf ",\"parent\":%d" p));
  Buffer.add_string b ",\"name\":\"";
  Json.escape b s.name;
  Buffer.add_string b (Printf.sprintf "\",\"host\":%d,\"minted\":%d" s.host s.minted);
  Buffer.add_string b ",\"marks\":{";
  let first = ref true in
  Array.iter
    (fun m ->
      match mark_time s m with
      | None -> ()
      | Some t ->
          if not !first then Buffer.add_char b ',';
          first := false;
          Buffer.add_char b '"';
          Buffer.add_string b (mark_name m);
          Buffer.add_string b "\":";
          Buffer.add_string b (string_of_int t))
    export_marks;
  Buffer.add_string b "},\"phases\":{";
  List.iteri
    (fun i (p, d) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b p;
      Buffer.add_string b "\":";
      Buffer.add_string b (string_of_int d))
    (phases s);
  Buffer.add_string b "}}"

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      add_span b s)
    (spans ());
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let write_file path =
  let oc = open_out path in
  output_string oc (to_json ());
  close_out oc
