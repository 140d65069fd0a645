open Engine

type t = {
  sim : Sim.t;
  stage : int; (* the fabric's index of this switch *)
  ports : int;
  transit : Sim.time;
  output_queue_capacity : int;
  outputs : Link.t option array;
  routes : (int * int, route) Hashtbl.t; (* keyed by (in_port, in_vci) *)
  sources : (int, int) Hashtbl.t array;
      (* per output port: in_port -> number of routes from it, zero counts
         removed, so an output port is single-source iff its table has
         one key *)
  port_faults : Fault.t option array;
  mutable routed : int;
  mutable dropped : int;
  mutable unroutable : int;
  m_routed : Metrics.Counter.t;
  m_dropped : Metrics.Counter.t;
  m_unroutable : Metrics.Counter.t;
  port_drops : Metrics.Counter.t array;
  port_queue_hw : Metrics.Gauge.t array;
  port_queue_peak : Metrics.Gauge.t array;
      (* deepest the output queue has been *at cell arrival*, dropped
         cells included — unlike [port_queue_hw], which only samples after
         successful sends, this shows a queue pinned at capacity even when
         every further arrival is dropped (the near-miss gauge) *)
  port_labels : int -> (string * string) list;
      (* metric labels of an output port; includes a ("switch", id)
         dimension when this switch is one stage of a fabric *)
  records : srecord Fifo.t;
      (* planned train forwardings (DESIGN.md §14), oldest first; folded
         and retired at every commit and registry read *)
  mutable on_settled : (in_port:int -> unit) option;
      (* a real cell from [in_port] left the fabric — forwarded onto its
         output link, dropped at the output queue, or unroutable (the
         in-flight gate of DESIGN.md §14 counts it out) *)
}

(* A route-table entry. [observe] (flow accounting) sees each cell the
   route carries at its forwarding instant: whether it made it onto the
   link. *)
and route = {
  out_port : int;
  out_vci : int;
  observe : (forwarded:bool -> unit) option;
}

(* One committed train crossing this switch: cell i is forwarded at
   [sr_times.(i)] leaving the output queue [sr_hw.(i)] deep. Folded into
   routed counters / port high-water no later than any observer reads
   them. *)
and srecord = {
  sr_port : int;
  mutable sr_live : int;
  sr_times : Engine.Sim.time array;
  sr_hw : float array;
  mutable sr_f : int; (* fold cursor *)
}

(* In bulk: one counter and gauge update per record, since a fold runs
   on every commit. *)
let fold_record t now r =
  let f = r.sr_f in
  if f < r.sr_live && r.sr_times.(f) <= now then begin
    let hw = ref r.sr_hw.(f) in
    r.sr_f <- f + 1;
    while r.sr_f < r.sr_live && r.sr_times.(r.sr_f) <= now do
      if r.sr_hw.(r.sr_f) > !hw then hw := r.sr_hw.(r.sr_f);
      r.sr_f <- r.sr_f + 1
    done;
    t.routed <- t.routed + (r.sr_f - f);
    Metrics.Counter.add t.m_routed (r.sr_f - f);
    Metrics.Gauge.set_max t.port_queue_hw.(r.sr_port) !hw;
    Metrics.Gauge.set_max t.port_queue_peak.(r.sr_port) !hw
  end

(* Apply every planned forwarding with a timestamp <= [now] and retire
   records with nothing left to apply. Exact at any [now]: it applies only
   what the next flush would apply anyway. *)
let fold_to t now =
  if not (Fifo.is_empty t.records) then
    Fifo.filter_in_place
      (fun r ->
        fold_record t now r;
        r.sr_f < r.sr_live)
      t.records

let dummy_record =
  { sr_port = 0; sr_live = 0; sr_times = [||]; sr_hw = [||]; sr_f = 0 }

let create sim ~ports ~transit ?(output_queue_capacity = 1024) ?id () =
  if ports <= 0 then invalid_arg "Switch.create: ports must be positive";
  (* In a multi-stage fabric each switch gets an [id]: per-port metric
     labels gain a ("switch", id) dimension and the flight-recorder
     snapshot name becomes distinct, so stages never alias. A single
     switch (no id) keeps the historical label set and snapshot name so
     existing dumps stay byte-identical. *)
  let port_labels p =
    match id with
    | None -> [ ("port", string_of_int p) ]
    | Some i -> [ ("switch", string_of_int i); ("port", string_of_int p) ]
  in
  let snapshot_name =
    match id with
    | None -> "atm.switch"
    | Some i -> Printf.sprintf "atm.switch.%d" i
  in
  let t =
    {
      sim;
      stage = Option.value id ~default:0;
      ports;
      transit;
      output_queue_capacity;
      outputs = Array.make ports None;
      port_faults = Array.make ports None;
      routes = Hashtbl.create 64;
      sources = Array.init ports (fun _ -> Hashtbl.create 1);
      routed = 0;
      dropped = 0;
      unroutable = 0;
      m_routed =
        Metrics.counter ~help:"cells forwarded onto an output port"
          "atm_switch_cells_routed_total" [];
      m_dropped =
        Metrics.counter ~help:"cells dropped at a full switch output queue"
          "atm_switch_cell_drops_total" [];
      m_unroutable =
        Metrics.counter ~help:"cells arriving with no matching VCI route"
          "atm_switch_unroutable_total" [];
      port_drops =
        Array.init ports (fun p ->
            Metrics.counter ~help:"cells dropped at a full switch output queue"
              "atm_switch_port_drops_total" (port_labels p));
      port_queue_hw =
        Array.init ports (fun p ->
            Metrics.gauge ~help:"deepest a switch output queue has ever been"
              "atm_switch_port_queue_high_water" (port_labels p));
      port_queue_peak =
        Array.init ports (fun p ->
            Metrics.gauge
              ~help:
                "deepest a switch output queue has been at cell arrival, \
                 drops included"
              "atm_switch_queue_peak" (port_labels p));
      port_labels;
      records = Fifo.create ~dummy:dummy_record;
      on_settled = None;
    }
  in
  Metrics.register_flush (fun () -> fold_to t (Sim.now sim));
  Recorder.register_snapshot snapshot_name (fun () ->
      Json.Obj
        (List.init t.ports (fun p ->
             ( "port" ^ string_of_int p,
               match t.outputs.(p) with
               | None -> Json.Null
               | Some l ->
                   Json.Obj
                     [
                       ( "queue_depth",
                         Json.Num (float_of_int (Link.queue_length l)) );
                       ( "drops",
                         Json.Num
                           (float_of_int
                              (Metrics.Counter.value t.port_drops.(p))) );
                     ] ))));
  t

let check_port t port =
  if port < 0 || port >= t.ports then invalid_arg "Switch: port out of range"

let attach_output t ~port link =
  check_port t port;
  t.outputs.(port) <- Some link;
  (* the output-port queue *is* the link's transmit queue; at-aware so
     catch-up samples on the train path see planned occupancy *)
  let local at = at - (Sim.global_now t.sim - Sim.now t.sim) in
  Timeseries.register_at "atm_switch_port_queue_depth" (t.port_labels port)
    (fun at -> float_of_int (Link.queue_length_at link ~at:(local at)))

let set_fault t ~port f =
  check_port t port;
  t.port_faults.(port) <- Some f

let add_route ?observe t ~in_port ~in_vci ~out_port ~out_vci =
  check_port t in_port;
  check_port t out_port;
  if Hashtbl.mem t.routes (in_port, in_vci) then
    invalid_arg
      (Printf.sprintf "Switch.add_route: VCI %d already routed on port %d"
         in_vci in_port);
  Hashtbl.add t.routes (in_port, in_vci) { out_port; out_vci; observe };
  let src = t.sources.(out_port) in
  Hashtbl.replace src in_port
    (1 + Option.value ~default:0 (Hashtbl.find_opt src in_port))

let remove_route t ~in_port ~in_vci =
  match Hashtbl.find_opt t.routes (in_port, in_vci) with
  | None -> ()
  | Some { out_port; _ } ->
      Hashtbl.remove t.routes (in_port, in_vci);
      let src = t.sources.(out_port) in
      let n = Hashtbl.find src in_port in
      if n = 1 then Hashtbl.remove src in_port
      else Hashtbl.replace src in_port (n - 1)

let lost t ~port (cell : Cell.t) =
  match Hashtbl.find_opt t.routes (port, cell.Cell.vci) with
  | Some { observe = Some f; _ } -> f ~forwarded:false
  | _ -> ()

let set_on_settled t f = t.on_settled <- Some f

let settled t ~in_port =
  match t.on_settled with Some f -> f ~in_port | None -> ()

let cells_routed t =
  fold_to t (Sim.now t.sim);
  t.routed

let cells_dropped t = t.dropped
let unroutable t = t.unroutable

let port_drops t ~port =
  check_port t port;
  Metrics.Counter.value t.port_drops.(port)

let queue_peak t ~port =
  check_port t port;
  fold_to t (Sim.now t.sim);
  Metrics.Gauge.value t.port_queue_peak.(port)
let transit t = t.transit
let output_queue_capacity t = t.output_queue_capacity
let ports t = t.ports

(* Train-commit gate and route resolution: a whole train may be planned
   through an output port only when the route exists, the port has a link
   and no fault injector, and no other input port routes to it — the
   single-source condition that makes downstream FIFO order equal arrival
   order (DESIGN.md §14). *)
let plan_route t ~in_port ~in_vci =
  match Hashtbl.find_opt t.routes (in_port, in_vci) with
  | None -> None
  | Some { out_port; out_vci; _ } -> (
      match t.outputs.(out_port) with
      | None -> None
      | Some link ->
          if t.port_faults.(out_port) <> None then None
          else if
            (* [in_port] is one source; any other key is a second *)
            Hashtbl.length t.sources.(out_port) > 1
          then None
          else Some (out_port, out_vci, link))

let commit_plan t ~out_port ~times ~hw =
  fold_to t (Sim.now t.sim);
  let r =
    {
      sr_port = out_port;
      sr_live = Array.length times;
      sr_times = times;
      sr_hw = hw;
      sr_f = 0;
    }
  in
  Fifo.push t.records r;
  r

let pending_records t = Fifo.length t.records

(* Cells past [keep] never reach the switch (they were cut upstream); their
   forwarding instants are all strictly in the future. *)
let truncate_plan t r ~keep =
  if keep < r.sr_live then begin
    r.sr_live <- keep;
    if r.sr_f > keep then begin
      let extra = r.sr_f - keep in
      t.routed <- t.routed - extra;
      Metrics.Counter.add t.m_routed (-extra);
      r.sr_f <- keep
    end
  end

let drop t (cell : Cell.t) ~out_port ~vci =
  t.dropped <- t.dropped + 1;
  Metrics.Counter.inc t.m_dropped;
  Metrics.Counter.inc t.port_drops.(out_port);
  Journal.drop cell.Cell.tag.journal;
  if Trace.enabled () then
    Trace.instant Trace.Cell "switch.drop" ~tid:out_port
      ~args:[ ("vci", Trace.Int vci) ]

(* Switch-site faults model a congested or misbehaving output port, so
   only loss is meaningful here — corruption and reordering belong to the
   fiber. Faulted cells take the same path as queue-overflow drops. *)
let fault_drops t ~out_port =
  match t.port_faults.(out_port) with
  | None -> false
  | Some f -> Fault.drops f

let input t ~port cell =
  check_port t port;
  if cell.Cell.eop then
    Journal.switch_in cell.Cell.tag.journal ~stage:t.stage ~in_port:port;
  match Hashtbl.find_opt t.routes (port, cell.Cell.vci) with
  | None ->
      t.unroutable <- t.unroutable + 1;
      Metrics.Counter.inc t.m_unroutable;
      if Trace.enabled () then
        Trace.instant Trace.Cell "switch.unroutable" ~tid:port
          ~args:[ ("vci", Trace.Int cell.Cell.vci) ];
      settled t ~in_port:port
  | Some ({ out_port; _ } as route) -> (
      match t.outputs.(out_port) with
      | None -> failwith "Switch: route to a port with no output link"
      | Some link ->
          Sim.schedule_drop ~label:"switch.transit" t.sim ~delay:t.transit
            (fun () ->
              (* the closure is allocated per cell: it captures the
                 route, not each of its fields *)
              let { out_port; out_vci; observe } = route in
              (* The output port queue is the link's transmit queue; a
                 full queue drops the cell, which is what makes large TCP
                 segments fragile over ATM (§7.8). *)
              let q = Link.queue_length link in
              let dropq = q >= t.output_queue_capacity in
              (* queue-full short-circuits the fault check, so the fault
                 RNG draws exactly when it did before observers existed *)
              let dropf = (not dropq) && fault_drops t ~out_port in
              let forwarded =
                if dropq || dropf then begin
                  drop t cell ~out_port ~vci:out_vci;
                  false
                end
                else if begin
                  if cell.Cell.eop then
                    Journal.forward cell.Cell.tag.journal ~stage:t.stage
                      ~out_port ~link:(Link.id link) ~queue:q;
                  Link.send link (Cell.with_vci cell out_vci)
                end
                then begin
                  t.routed <- t.routed + 1;
                  Metrics.Counter.inc t.m_routed;
                  Metrics.Gauge.set_max t.port_queue_hw.(out_port)
                    (float_of_int (Link.queue_length link));
                  true
                end
                else begin
                  drop t cell ~out_port ~vci:out_vci;
                  false
                end
              in
              Metrics.Gauge.set_max t.port_queue_peak.(out_port)
                (float_of_int
                   (if forwarded then Link.queue_length link else q));
              (match observe with Some f -> f ~forwarded | None -> ());
              settled t ~in_port:port))
