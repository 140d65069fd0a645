open Engine

type config = {
  link_bandwidth_mbps : float;
  link_propagation : Sim.time;
  switch_transit : Sim.time;
  switch_queue_capacity : int;
  host_tx_fifo : int;
}

(* The ASX-200 is a shared-buffer switch with thousands of cells of output
   buffering, so converging bursts (e.g. an 8-way all-to-all of 4 KB PDUs)
   do not normally lose cells; experiments that study loss shrink
   [switch_queue_capacity] explicitly. *)
let default_config =
  {
    link_bandwidth_mbps = 140.;
    link_propagation = Sim.ns 500;
    switch_transit = Sim.us 2;
    switch_queue_capacity = 8192;
    host_tx_fifo = 64;
  }

(* --- declarative topology (DESIGN.md §16) ---------------------------- *)

type clos = { pods : int; spine : int; hosts_per_pod : int }

type topology =
  | Single of int
  | Clos of clos
  | Custom of {
      switch_ports : int array;
      hosts : (int * int) array;
      trunks : (int * int * int * int) list;
    }

let topology_hosts = function
  | Single hosts -> hosts
  | Clos c -> c.pods * c.hosts_per_pod
  | Custom c -> Array.length c.hosts

(* Elaborated fabric: switches with port counts, each host's attachment
   point, and the directed inter-stage fibers (a full-duplex trunk is two
   of them). *)
type fabric = {
  fb_ports : int array; (* switch -> port count *)
  fb_attach : (int * int) array; (* host -> (switch, port) *)
  fb_trunks : (int * int * int * int) array;
      (* directed: (src switch, src port, dst switch, dst port) *)
}

let elaborate = function
  | Single hosts ->
      if hosts <= 0 then invalid_arg "Network.create: hosts must be positive";
      {
        fb_ports = [| hosts |];
        fb_attach = Array.init hosts (fun h -> (0, h));
        fb_trunks = [||];
      }
  | Clos { pods; spine; hosts_per_pod } ->
      if pods <= 0 || spine <= 0 || hosts_per_pod <= 0 then
        invalid_arg "Network: Clos dimensions must be positive";
      (* Leaves are switches 0..pods-1 (ports 0..hosts_per_pod-1 face
         hosts, hosts_per_pod+s faces spine s); spines are switches
         pods..pods+spine-1 with one port per pod. *)
      let fb_ports =
        Array.init (pods + spine) (fun i ->
            if i < pods then hosts_per_pod + spine else pods)
      in
      let fb_attach =
        Array.init (pods * hosts_per_pod) (fun h ->
            (h / hosts_per_pod, h mod hosts_per_pod))
      in
      let trunks = ref [] in
      for l = pods - 1 downto 0 do
        for s = spine - 1 downto 0 do
          (* a full-duplex fiber pair per (leaf, spine) *)
          trunks :=
            (l, hosts_per_pod + s, pods + s, l)
            :: (pods + s, l, l, hosts_per_pod + s)
            :: !trunks
        done
      done;
      { fb_ports; fb_attach; fb_trunks = Array.of_list !trunks }
  | Custom { switch_ports; hosts; trunks } ->
      let nsw = Array.length switch_ports in
      if nsw = 0 then invalid_arg "Network: Custom needs at least one switch";
      Array.iter
        (fun p ->
          if p <= 0 then invalid_arg "Network: switch port counts must be positive")
        switch_ports;
      if Array.length hosts = 0 then
        invalid_arg "Network: Custom needs at least one host";
      let check_pt what (sw, p) =
        if sw < 0 || sw >= nsw then
          invalid_arg (Printf.sprintf "Network: %s names switch %d" what sw);
        if p < 0 || p >= switch_ports.(sw) then
          invalid_arg
            (Printf.sprintf "Network: %s names port %d of switch %d" what p sw)
      in
      Array.iter (check_pt "host attachment") hosts;
      List.iter
        (fun (sa, pa, sb, pb) ->
          check_pt "trunk endpoint" (sa, pa);
          check_pt "trunk endpoint" (sb, pb))
        trunks;
      let dtrunks =
        Array.of_list
          (List.concat_map
             (fun (sa, pa, sb, pb) -> [ (sa, pa, sb, pb); (sb, pb, sa, pa) ])
             trunks)
      in
      { fb_ports = switch_ports; fb_attach = hosts; fb_trunks = dtrunks }

(* Where a switch output port's link leads. *)
type dest = To_host of int | To_switch of { sw : int; port : int; trunk : int }

(* Flow-observability bookkeeping (DESIGN.md §17), one per installed route
   direction. Kept only while flow accounting or path records are active:
   per-flow PDU sequence numbers and, for path records, the FIFO of
   partially-stamped per-cell journeys (single-source routing makes wire
   order per flow total, so the oldest partial expecting stage [j] is the
   one an EOP cell observed at stage [j] belongs to). *)
type ftrack = {
  ft_src : int;
  ft_dst : int;
  ft_vci : int; (* uplink (sender-side) VCI *)
  ft_rx_vci : int; (* downlink VCI, for disconnect cleanup *)
  ft_stages : int; (* switch stages the route crosses *)
  ft_flow : Flowstat.flow option; (* when flow accounting is active *)
  mutable ft_seq : int; (* next per-flow PDU sequence number *)
  ft_partials : partial Fifo.t; (* oldest first *)
}

and partial = {
  pa_seq : int;
  pa_injected : Sim.time;
  mutable pa_last : Sim.time; (* previous forwarding (or injection) instant *)
  mutable pa_hops : Pathrec.hop list; (* most-recent-first *)
  mutable pa_nhops : int; (* length of [pa_hops] *)
}

(* fills the unused slots of [ft_partials]; never expects a hop *)
let no_partial =
  { pa_seq = -1; pa_injected = 0; pa_last = 0; pa_hops = []; pa_nhops = -1 }

type t = {
  sim : Sim.t;
  hosts : int;
  topo : topology;
  switches : Switch.t array;
  uplinks : Link.t array; (* host -> ingress switch *)
  downlinks : Link.t array; (* egress switch -> host *)
  trunks : Link.t array; (* directed inter-stage fibers *)
  host_attach : (int * int) array; (* host -> (switch, port) *)
  dests : dest option array array; (* switch -> out port -> destination *)
  rx_handlers : (Cell.t -> unit) option array;
  rx_train_handlers :
    (Cell.train -> rx_vci:int -> deliveries:Sim.time array -> unit) option
    array;
  (* VCI allocation, per link direction. VCIs below 32 are reserved as on a
     real ATM fabric; the 16-bit cell-header field bounds them above
     (allocators raise at the ceiling instead of silently aliasing). *)
  next_tx_vci : int array; (* next free VCI on host's uplink *)
  next_rx_vci : int array; (* next free VCI on host's downlink *)
  next_trunk_vci : int array; (* next free VCI per directed trunk *)
  in_flight : int array array;
    (* per switch, per ingress port: real cells accepted onto the ingress
       link but not yet settled into their output link by that switch.
       While any counter along a train's hop chain is nonzero, commits
       refuse — a straggler still crossing that stage would reach the
       next link during the planned window and be queued after entries it
       precedes in wire order (bridge_send appends at the planned tail).
       Cells killed by an ingress loss or fault site never settle and pin
       the counter, which only disables commits through a stage whose
       ingress link refuses plans anyway. *)
  conn_hops : (int * int, (int * int * int) list) Hashtbl.t;
    (* (src host, tx VCI) -> per-stage (switch, in port, in VCI), the
       route-table entries a disconnect must remove *)
  undeliverable : (int, Metrics.Counter.t) Hashtbl.t;
    (* lazily-created per-host counters; see [undeliverable_cell] *)
  obs_on : bool;
    (* flow accounting or path records were active at creation; gates
       every §17 hook so flags-off runs add no per-cell work *)
  flowstat : Flowstat.t option;
  tracks : (int * int, ftrack) Hashtbl.t; (* (src host, tx VCI) *)
  hop_map : (int * int * int, ftrack * int) Hashtbl.t;
    (* (switch, in port, in VCI) -> (track, hop index) *)
  rx_map : (int * int, ftrack) Hashtbl.t; (* (dst host, rx VCI) *)
}

(* Count cells that reach a downlink whose host never attached a receive
   handler instead of dropping them silently (they used to vanish without
   a counter or span mark). The counter family is created lazily so
   fully-wired runs — every experiment attaches an NI per host — keep
   their metric dumps byte-identical. *)
let undeliverable_cell t ~host (cell : Cell.t) =
  let c =
    match Hashtbl.find_opt t.undeliverable host with
    | Some c -> c
    | None ->
        let c =
          Metrics.counter
            ~help:"cells delivered to a downlink with no attached host NI"
            "atm_fabric_undeliverable_total"
            [ ("host", string_of_int host) ]
        in
        Hashtbl.add t.undeliverable host c;
        c
  in
  Metrics.Counter.inc c;
  Span.mark cell.Cell.ctx Span.Dropped

(* --- flow observability hooks (DESIGN.md §17) ------------------------- *)

(* Attach stage [hop]'s entry to the oldest partial journey expecting it
   (|pa_hops| = hop); wire order per flow is total, so FIFO matching is
   exact on a loss-free path. An injected fault that eats a cell inside a
   link leaves a stale partial behind, which can shift attribution of the
   flow's later records — drops decided *at the switch* are matched and
   cleaned up precisely. *)
let attach_hop partials ~now ~hop ~mk =
  match Fifo.find_first (fun pa -> pa.pa_nhops = hop) partials with
  | None -> ()
  | Some pa ->
      pa.pa_hops <- mk ~latency:(now - pa.pa_last) :: pa.pa_hops;
      pa.pa_nhops <- hop + 1;
      pa.pa_last <- now

let remove_expecting partials ~hop =
  ignore (Fifo.remove_first (fun pa -> pa.pa_nhops = hop) partials)

(* Per-cell switch observer: count the cell into its flow's stage-[hop]
   accounting and, for an EOP cell with path records on, stamp the hop
   onto the PDU's partial record at the real forwarding instant. *)
let observe_cell t si (ob : Switch.observed) =
  match
    Hashtbl.find_opt t.hop_map (si, ob.Switch.ob_in_port, ob.Switch.ob_in_vci)
  with
  | None -> ()
  | Some (tr, hop) ->
      (match (t.flowstat, tr.ft_flow) with
      | Some fs, Some fl ->
          if ob.Switch.ob_forwarded then Flowstat.count fs fl ~hop ~cells:1
          else Flowstat.drop fs fl ~hop
      | _ -> ());
      if ob.Switch.ob_eop && Pathrec.enabled () then
        if ob.Switch.ob_forwarded then
          attach_hop tr.ft_partials ~now:(Sim.now t.sim) ~hop
            ~mk:(fun ~latency ->
              {
                Pathrec.h_stage = si;
                h_in_port = ob.Switch.ob_in_port;
                h_out_port = ob.Switch.ob_out_port;
                h_queue = ob.Switch.ob_queue;
                h_latency_ns = latency;
              })
        else
          (* the PDU's EOP cell died at this stage: it will never be
             delivered, so retire its partial record *)
          remove_expecting tr.ft_partials ~hop

(* Downlink delivery: the oldest fully-stamped partial is this EOP cell's
   journey; seal it into a settled-at-delivery path record. *)
let observe_delivery t ~host (cell : Cell.t) =
  if cell.Cell.eop && Pathrec.enabled () then
    match Hashtbl.find_opt t.rx_map (host, cell.Cell.vci) with
    | None -> ()
    | Some tr ->
        (match
           Fifo.remove_first
             (fun pa -> pa.pa_nhops = tr.ft_stages)
             tr.ft_partials
         with
        | None -> ()
        | Some pa ->
            let now = Sim.now t.sim in
            ignore
              (Pathrec.add ~settle:now
                 {
                   Pathrec.r_src = tr.ft_src;
                   r_dst = tr.ft_dst;
                   r_vci = tr.ft_vci;
                   r_seq = pa.pa_seq;
                   r_injected = pa.pa_injected;
                   r_delivered = now;
                   r_hops = Array.of_list (List.rev pa.pa_hops);
                 }))

(* One injector per attachment point — per access-link direction per host,
   per switch output port per stage — so each has its own seed-derived
   stream and its own [site] metric label, and faults on host 0's uplink
   never shift the draws seen by host 1. Switch sites cover every output
   port of every stage (trunk ports included, so interior fabric faults
   need no separate site kind); a single-switch network keeps the
   historical [switch.port.<p>] labels so its seeded streams are
   unchanged. *)
let apply_fault t fspec =
  let open Fault in
  let multi = Array.length t.switches > 1 in
  List.iter
    (function
      | Link_up ->
          Array.iteri
            (fun h link ->
              Link.set_fault link
                (create ~site:(Printf.sprintf "link.up.%d" h) fspec))
            t.uplinks
      | Link_down ->
          Array.iteri
            (fun h link ->
              Link.set_fault link
                (create ~site:(Printf.sprintf "link.down.%d" h) fspec))
            t.downlinks
      | Switch ->
          Array.iteri
            (fun si sw ->
              for p = 0 to Switch.ports sw - 1 do
                let site =
                  if multi then Printf.sprintf "switch.%d.port.%d" si p
                  else Printf.sprintf "switch.port.%d" p
                in
                Switch.set_fault sw ~port:p (create ~site fspec)
              done)
            t.switches
      | Ni -> () (* NI constructors consult [Fault.configured] themselves *))
    fspec.sites

let create_topo sim ~topology config =
  let fb = elaborate topology in
  let hosts = topology_hosts topology in
  let nsw = Array.length fb.fb_ports in
  let multi = nsw > 1 in
  let switches =
    Array.init nsw (fun i ->
        Switch.create sim ~ports:fb.fb_ports.(i) ~transit:config.switch_transit
          ~output_queue_capacity:config.switch_queue_capacity
          ?id:(if multi then Some i else None)
          ())
  in
  let mk_link ?queue_capacity labels =
    Link.create sim ?queue_capacity ~metrics_labels:labels
      ~bandwidth_mbps:config.link_bandwidth_mbps
      ~propagation:config.link_propagation ()
  in
  let host_link ~dir h = [ ("dir", dir); ("host", string_of_int h) ] in
  let uplinks =
    Array.init hosts (fun h ->
        mk_link ~queue_capacity:config.host_tx_fifo (host_link ~dir:"up" h))
  in
  let downlinks = Array.init hosts (fun h -> mk_link (host_link ~dir:"down" h)) in
  let trunks =
    Array.map
      (fun (sa, pa, sb, pb) ->
        mk_link
          [
            ("dir", "trunk");
            ("link", Printf.sprintf "s%d.p%d-s%d.p%d" sa pa sb pb);
          ])
      fb.fb_trunks
  in
  (* Wire the fabric map, refusing port double-use. *)
  let dests = Array.map (fun p -> Array.make p None) fb.fb_ports in
  let claim sw port d =
    if dests.(sw).(port) <> None then
      invalid_arg
        (Printf.sprintf "Network: port %d of switch %d attached twice" port sw);
    dests.(sw).(port) <- Some d
  in
  Array.iteri (fun h (sw, port) -> claim sw port (To_host h)) fb.fb_attach;
  Array.iteri
    (fun k (sa, pa, sb, pb) -> claim sa pa (To_switch { sw = sb; port = pb; trunk = k }))
    fb.fb_trunks;
  let t =
    {
      sim;
      hosts;
      topo = topology;
      switches;
      uplinks;
      downlinks;
      trunks;
      host_attach = fb.fb_attach;
      dests;
      rx_handlers = Array.make hosts None;
      rx_train_handlers = Array.make hosts None;
      next_tx_vci = Array.make hosts 32;
      next_rx_vci = Array.make hosts 32;
      next_trunk_vci = Array.make (Array.length fb.fb_trunks) 32;
      in_flight = Array.map (fun p -> Array.make p 0) fb.fb_ports;
      conn_hops = Hashtbl.create 64;
      undeliverable = Hashtbl.create 8;
      obs_on = Flowstat.active () || Pathrec.enabled ();
      flowstat = (if Flowstat.active () then Some (Flowstat.create ()) else None);
      tracks = Hashtbl.create 64;
      hop_map = Hashtbl.create 64;
      rx_map = Hashtbl.create 64;
    }
  in
  if t.obs_on then begin
    (* settle provisional path records no later than any registry read *)
    Metrics.register_flush (fun () -> Pathrec.fold ~now:(Sim.now sim));
    Array.iteri
      (fun si sw -> Switch.set_observer sw (fun ob -> observe_cell t si ob))
      switches
  end;
  Array.iteri
    (fun si sw ->
      Switch.set_on_settled sw (fun ~in_port ->
          if t.in_flight.(si).(in_port) > 0 then
            t.in_flight.(si).(in_port) <- t.in_flight.(si).(in_port) - 1))
    switches;
  for h = 0 to hosts - 1 do
    let sw, port = t.host_attach.(h) in
    Link.set_receiver uplinks.(h) (fun cell ->
        Switch.input switches.(sw) ~port cell);
    Link.set_on_accept uplinks.(h) (fun () ->
        t.in_flight.(sw).(port) <- t.in_flight.(sw).(port) + 1);
    Switch.attach_output switches.(sw) ~port downlinks.(h);
    Link.set_receiver downlinks.(h) (fun cell ->
        if t.obs_on then observe_delivery t ~host:h cell;
        match t.rx_handlers.(h) with
        | Some f -> f cell
        | None -> undeliverable_cell t ~host:h cell)
  done;
  Array.iteri
    (fun k (sa, pa, sb, pb) ->
      Switch.attach_output switches.(sa) ~port:pa trunks.(k);
      Link.set_receiver trunks.(k) (fun cell ->
          Switch.input switches.(sb) ~port:pb cell);
      Link.set_on_accept trunks.(k) (fun () ->
          t.in_flight.(sb).(pb) <- t.in_flight.(sb).(pb) + 1))
    fb.fb_trunks;
  (match Fault.configured () with
  | Some fspec -> apply_fault t fspec
  | None -> ());
  t

let create sim ~hosts config = create_topo sim ~topology:(Single hosts) config
let sim t = t.sim
let host_count t = t.hosts
let topology t = t.topo

let check_host t h =
  if h < 0 || h >= t.hosts then invalid_arg "Network: host out of range"

let attach_rx t ~host f =
  check_host t host;
  t.rx_handlers.(host) <- Some f

let attach_rx_train t ~host f =
  check_host t host;
  t.rx_train_handlers.(host) <- Some f

(* pcap tap at the injection point: every cell that enters the fabric is
   captured as a LINKTYPE_SUNATM record. *)
let capture_cell ~host cell =
  if Pcapng.enabled () then begin
    let ifc =
      Pcapng.iface
        ~name:(Printf.sprintf "atm%d" host)
        ~linktype:Pcapng.linktype_sunatm
    in
    Pcapng.capture ~iface:ifc (Cell.sunatm_bytes cell)
  end

let send t ~host cell =
  check_host t host;
  if cell.Cell.eop then Span.mark cell.Cell.ctx Span.Injected;
  capture_cell ~host cell;
  (* the uplink's on_accept hook counts the cell into the ingress port's
     in-flight gate *)
  let ok = Link.send t.uplinks.(host) cell in
  if t.obs_on then begin
    match Hashtbl.find_opt t.tracks (host, cell.Cell.vci) with
    | None -> ()
    | Some tr ->
        if not ok then (
          (* the host TX FIFO refused the cell bound for stage 0 *)
          match (t.flowstat, tr.ft_flow) with
          | Some fs, Some fl -> Flowstat.drop fs fl ~hop:0
          | _ -> ())
        else if cell.Cell.eop && Pathrec.enabled () then begin
          let seq = tr.ft_seq in
          tr.ft_seq <- seq + 1;
          let now = Sim.now t.sim in
          Fifo.push tr.ft_partials
            {
              pa_seq = seq;
              pa_injected = now;
              pa_last = now;
              pa_hops = [];
              pa_nhops = 0;
            }
        end
  end;
  ok

let in_flight t ~host =
  check_host t host;
  let sw, port = t.host_attach.(host) in
  t.in_flight.(sw).(port)

(* Has the per-cell backlog from [host] toward [vci]'s destination flushed
   out of the fabric? True once every cell accepted at each stage of the
   hop chain has settled through its switch AND every link along the route
   has no real cell queued or on the wire — exactly the transient
   conditions that make a train commit refuse. When the route itself
   cannot train (no route, multi-source port, fault site) there is nothing
   to wait for. *)
let path_clear t ~host ~vci =
  check_host t host;
  let rec clear sw in_port in_vci =
    t.in_flight.(sw).(in_port) = 0
    &&
    match Switch.plan_route t.switches.(sw) ~in_port ~in_vci with
    | None -> true
    | Some (out_port, out_vci, link) -> (
        match t.dests.(sw).(out_port) with
        | Some (To_switch { sw = nsw; port = nport; trunk = _ }) ->
            Link.quiet link && clear nsw nport out_vci
        | Some (To_host _) | None -> Link.quiet link)
  in
  let sw, port = t.host_attach.(host) in
  clear sw port vci

let uplink t ~host =
  check_host t host;
  t.uplinks.(host)

let downlink t ~host =
  check_host t host;
  t.downlinks.(host)

let switch_count t = Array.length t.switches

let switch_at t i =
  if i < 0 || i >= Array.length t.switches then
    invalid_arg "Network: switch index out of range";
  t.switches.(i)

let switch t = t.switches.(0)

let host_switch t ~host =
  check_host t host;
  fst t.host_attach.(host)

let flowstat t = t.flowstat

let note_retx t ~host ~vci =
  match t.flowstat with
  | Some fs -> Flowstat.note_retx fs ~src:host ~vci
  | None -> ()

let check_sw t sw =
  if sw < 0 || sw >= Array.length t.switches then
    invalid_arg "Network: switch index out of range"

let output_link t ~sw ~port =
  check_sw t sw;
  if port < 0 || port >= Array.length t.dests.(sw) then None
  else
    match t.dests.(sw).(port) with
    | None -> None
    | Some (To_host h) -> Some t.downlinks.(h)
    | Some (To_switch { trunk; _ }) -> Some t.trunks.(trunk)

let port_dest t ~sw ~port =
  check_sw t sw;
  if port < 0 || port >= Array.length t.dests.(sw) then None
  else
    match t.dests.(sw).(port) with
    | None -> None
    | Some (To_host h) -> Some (`Host h)
    | Some (To_switch { sw = s; _ }) -> Some (`Switch s)

(* --- train fast path (DESIGN.md §14, multi-stage §16) ----------------- *)

(* Default receive expansion for hosts whose NI is not train-aware: one
   chained event per cell, each re-checking the train's live length so an
   upstream truncation simply stops the chain (the per-cell path
   re-delivers the cut cells for real). *)
let rec expand_rx t ~dest ~rx_vci ~train ~deliveries i =
  if i < Cell.Train.length train then begin
    let cell = Cell.with_vci (Cell.Train.cell train i) rx_vci in
    (match t.rx_handlers.(dest) with
    | Some f -> f cell
    | None -> undeliverable_cell t ~host:dest cell);
    if i + 1 < Cell.Train.length train then
      Sim.schedule_drop ~label:"net.rx_train" t.sim
        ~delay:(deliveries.(i + 1) - Sim.now t.sim)
        (fun () -> expand_rx t ~dest ~rx_vci ~train ~deliveries (i + 1))
  end

(* One stage of a planned multi-hop journey: the switch that forwards the
   train at [st_arrivals] and the plan on its output link. *)
type stage = {
  st_sw : int;
  st_in_port : int;
  st_out_port : int;
  st_out_vci : int;
  st_link : Link.t;
  st_transit : Sim.time;
  st_arrivals : Sim.time array;
  st_plan : Link.plan;
}

(* Plan a whole train's journey across the fabric analytically: sender-paced
   chain on the uplink, then per stage a fabric transit and an arrival-fed
   plan on the stage's output link (trunk or downlink), walking the full
   hop chain. All-or-nothing — any refusal (legacy traffic in flight at any
   stage, a loss or fault site, a queue at capacity, a same-instant tie)
   returns [None] and the caller stays on the per-cell path. On success
   each element holds planned state that folds lazily into its counters, a
   single event hands the train to the receiving host at the first cell's
   delivery instant, and a truncation listener un-plans everything past an
   interference point at every stage. The owner must arrange for
   [on_interfere] to split its chain (it is installed as the uplink's
   interfere hook; clear it when the chain ends). *)
let commit_train_gen t ~host ~train ~plan_uplink ~on_interfere =
  check_host t host;
  let n = Cell.Train.length train in
  let sw0, port0 = t.host_attach.(host) in
  if n = 0 || t.in_flight.(sw0).(port0) > 0 then None
  else
    (* Resolve the hop chain first: the route must exist at every stage
       (single-source output ports only) and every ingress port along it
       must have no un-settled real cells. *)
    let rec resolve sw in_port in_vci acc =
      match Switch.plan_route t.switches.(sw) ~in_port ~in_vci with
      | None -> None
      | Some (out_port, out_vci, link) -> (
          let hop = (sw, in_port, out_port, out_vci, link) in
          match t.dests.(sw).(out_port) with
          | None -> None
          | Some (To_host dst) -> Some (List.rev (hop :: acc), dst)
          | Some (To_switch { sw = nsw; port = nport; trunk = _ }) ->
              if t.in_flight.(nsw).(nport) > 0 then None
              else resolve nsw nport out_vci (hop :: acc))
    in
    match resolve sw0 port0 (Cell.Train.vci train) [] with
    | None -> None
    | Some (hops, dst) -> (
        let uplink = t.uplinks.(host) in
        match plan_uplink uplink with
        | None -> None
        | Some up_plan -> (
            (* Chain the per-stage plans: cell i reaches stage j's switch
               one hop latency after leaving the previous link, is
               forwarded [transit] later, and feeds the stage's output
               link. *)
            let rec plan_stages prev_link prev_starts hops acc =
              match hops with
              | [] -> Some (List.rev acc)
              | (sw, in_port, out_port, out_vci, link) :: rest -> (
                  let transit = Switch.transit t.switches.(sw) in
                  let lat =
                    Link.cell_time prev_link + Link.propagation prev_link
                  in
                  let arrivals =
                    Array.map (fun s -> s + lat + transit) prev_starts
                  in
                  match
                    Link.plan_feed link ~arrivals ~sched_lead:transit
                      ~refuse_occ:
                        (Switch.output_queue_capacity t.switches.(sw))
                  with
                  | None -> None
                  | Some pl ->
                      plan_stages link (Link.plan_starts pl) rest
                        ({
                           st_sw = sw;
                           st_in_port = in_port;
                           st_out_port = out_port;
                           st_out_vci = out_vci;
                           st_link = link;
                           st_transit = transit;
                           st_arrivals = arrivals;
                           st_plan = pl;
                         }
                        :: acc))
            in
            match
              plan_stages uplink (Link.plan_starts up_plan) hops []
            with
            | None -> None
            | Some stages ->
                let up_hop = Link.commit_plan uplink up_plan ~fold_sent:true in
                let commits =
                  List.map
                    (fun st ->
                      let lhop =
                        Link.commit_plan st.st_link st.st_plan ~fold_sent:true
                      in
                      let srec =
                        Switch.commit_plan t.switches.(st.st_sw)
                          ~out_port:st.st_out_port ~times:st.st_arrivals
                          ~hw:(Link.plan_queue_after st.st_plan)
                      in
                      (st, lhop, srec))
                    stages
                in
                let final = List.nth stages (List.length stages - 1) in
                let up_accepts = Link.plan_accepts up_plan in
                let up_starts = Link.plan_starts up_plan in
                let down_starts = Link.plan_starts final.st_plan in
                let down_lat =
                  Link.cell_time final.st_link + Link.propagation final.st_link
                in
                (* Flow accounting and path records (DESIGN.md §17): a
                   committed train is loss-free at every stage, so the
                   whole train folds into per-hop flow counters in
                   O(stages); per-PDU path records are synthesized from
                   the plan arrays at the exact instants the per-cell
                   path would stamp, provisional until the EOP cell's
                   planned uplink acceptance passes. *)
                let track =
                  if t.obs_on then
                    Hashtbl.find_opt t.tracks (host, Cell.Train.vci train)
                  else None
                in
                let counted = ref 0 in
                (match track with
                | Some tr -> (
                    match (t.flowstat, tr.ft_flow) with
                    | Some fs, Some fl ->
                        counted := n;
                        for j = 0 to tr.ft_stages - 1 do
                          Flowstat.count fs fl ~hop:j ~cells:n
                        done
                    | _ -> ())
                | None -> ());
                let path_recs = ref [] in
                let synth_hi = ref 0 in
                (match track with
                | Some tr when Pathrec.enabled () ->
                    let stage_arr = Array.of_list stages in
                    let queue_after =
                      Array.map
                        (fun st -> Link.plan_queue_after st.st_plan)
                        stage_arr
                    in
                    for i = 0 to n - 1 do
                      if (Cell.Train.cell train i).Cell.eop then begin
                        let seq = tr.ft_seq in
                        tr.ft_seq <- seq + 1;
                        let injected = up_accepts.(i) in
                        let hops =
                          Array.mapi
                            (fun j st ->
                              let prev =
                                if j = 0 then injected
                                else stage_arr.(j - 1).st_arrivals.(i)
                              in
                              {
                                Pathrec.h_stage = st.st_sw;
                                h_in_port = st.st_in_port;
                                h_out_port = st.st_out_port;
                                (* depth found at arrival = depth just
                                   after acceptance minus the cell
                                   itself, floored when it went straight
                                   to the wire *)
                                h_queue =
                                  max 0
                                    (int_of_float queue_after.(j).(i) - 1);
                                h_latency_ns = st.st_arrivals.(i) - prev;
                              })
                            stage_arr
                        in
                        let r =
                          Pathrec.add ~settle:up_accepts.(i)
                            {
                              Pathrec.r_src = tr.ft_src;
                              r_dst = tr.ft_dst;
                              r_vci = tr.ft_vci;
                              r_seq = seq;
                              r_injected = injected;
                              r_delivered = down_starts.(i) + down_lat;
                              r_hops = hops;
                            }
                        in
                        path_recs := (i, seq, r) :: !path_recs
                      end
                    done;
                    synth_hi := tr.ft_seq
                | _ -> ());
                (* Train-granular observers (DESIGN.md §15): the plan
                   arrays give every milestone's exact instant, so EOP
                   span marks are stamped at the same values the
                   per-cell path would produce. Marks replace, so the
                   per-cell values are those of the LAST stage the cell
                   crosses — synthesized from [final]. *)
                let synth_spans =
                  Span.enabled ()
                  && Span.granularity () = Granularity.Per_train
                in
                (* (index, ctx) of each EOP cell, captured now: the
                   truncation listener runs after [live] has shrunk, so
                   cut cells are no longer reachable via [Train.cell] *)
                let eop_ctxs = ref [] in
                if synth_spans then
                  for i = 0 to n - 1 do
                    let cell = Cell.Train.cell train i in
                    if cell.Cell.eop then begin
                      let ctx = cell.Cell.ctx in
                      eop_ctxs := (i, ctx) :: !eop_ctxs;
                      Span.mark_at ctx Span.Injected ~t:up_accepts.(i);
                      Span.mark_at ctx Span.Switch_in
                        ~t:(final.st_arrivals.(i) - final.st_transit);
                      Span.mark_at ctx Span.Switch_out ~t:final.st_arrivals.(i);
                      Span.mark_at ctx Span.Link_tx ~t:down_starts.(i);
                      Span.mark_at ctx Span.Rx_cell
                        ~t:(down_starts.(i) + down_lat)
                    end
                  done;
                let slices =
                  if not (Trace.train_slices_wanted ()) then None
                  else
                    let up_cell = Link.cell_time uplink in
                    let args =
                      [
                        ("vci", Trace.Int (Cell.Train.vci train));
                        ("cells", Trace.Int n);
                      ]
                    in
                    let sl name ~tid ~ts ~fin =
                      Trace.train_slice Trace.Cell ~tid ~args ~ts
                        ~dur:(fin - ts) name
                    in
                    let s_up =
                      sl "train.uplink" ~tid:host ~ts:up_starts.(0)
                        ~fin:(up_starts.(n - 1) + up_cell)
                    in
                    (* one (switch, link) slice pair per stage: interior
                       stages are "train.trunk", the egress stage keeps
                       the historical "train.downlink" name *)
                    let per_stage =
                      List.map
                        (fun st ->
                          let starts = Link.plan_starts st.st_plan in
                          let cell = Link.cell_time st.st_link in
                          let terminal =
                            match t.dests.(st.st_sw).(st.st_out_port) with
                            | Some (To_host _) -> true
                            | _ -> false
                          in
                          let s_sw =
                            sl "train.switch" ~tid:st.st_out_port
                              ~ts:(st.st_arrivals.(0) - st.st_transit)
                              ~fin:st.st_arrivals.(n - 1)
                          in
                          let s_link =
                            sl
                              (if terminal then "train.downlink"
                               else "train.trunk")
                              ~tid:st.st_out_port ~ts:starts.(0)
                              ~fin:(starts.(n - 1) + cell)
                          in
                          (st, cell, s_sw, s_link))
                        stages
                    in
                    Some (up_cell, s_up, per_stage)
                in
                Cell.Train.on_truncate train (fun ~keep ~now ->
                    Link.truncate_hop uplink up_hop ~keep ~now;
                    List.iter
                      (fun (st, lhop, srec) ->
                        Switch.truncate_plan t.switches.(st.st_sw) srec ~keep;
                        Link.truncate_hop st.st_link lhop ~keep ~now)
                      commits;
                    (* un-count the cut suffix (the per-cell re-run
                       re-counts it) and discard its provisional path
                       records, handing their sequence numbers back as
                       long as no later injection consumed one *)
                    (match track with
                    | Some tr ->
                        (match (t.flowstat, tr.ft_flow) with
                        | Some fs, Some fl when !counted > keep ->
                            let cut = !counted - keep in
                            for j = 0 to tr.ft_stages - 1 do
                              Flowstat.count fs fl ~hop:j ~cells:(-cut)
                            done;
                            counted := keep
                        | _ -> ());
                        let min_seq = ref max_int in
                        List.iter
                          (fun (i, seq, r) ->
                            if i >= keep then begin
                              Pathrec.discard r;
                              if seq < !min_seq then min_seq := seq
                            end)
                          !path_recs;
                        if !min_seq < max_int && tr.ft_seq = !synth_hi then begin
                          tr.ft_seq <- !min_seq;
                          synth_hi := !min_seq
                        end
                    | None -> ());
                    (* cut cells re-run the per-cell path, which
                       re-stamps their marks for real *)
                    List.iter
                      (fun (i, ctx) ->
                        if i >= keep then begin
                          Span.unmark ctx Span.Injected;
                          Span.unmark ctx Span.Switch_in;
                          Span.unmark ctx Span.Switch_out;
                          Span.unmark ctx Span.Link_tx;
                          Span.unmark ctx Span.Rx_cell
                        end)
                      !eop_ctxs;
                    match slices with
                    | None -> ()
                    | Some (up_cell, s_up, per_stage) ->
                        if keep = 0 then begin
                          Trace.drop_slice s_up;
                          List.iter
                            (fun (_, _, s_sw, s_link) ->
                              Trace.drop_slice s_sw;
                              Trace.drop_slice s_link)
                            per_stage
                        end
                        else begin
                          Trace.set_slice s_up ~ts:up_starts.(0)
                            ~dur:
                              (up_starts.(keep - 1) + up_cell
                             - up_starts.(0));
                          List.iter
                            (fun (st, cell, s_sw, s_link) ->
                              let sw_ts =
                                st.st_arrivals.(0) - st.st_transit
                              in
                              Trace.set_slice s_sw ~ts:sw_ts
                                ~dur:(st.st_arrivals.(keep - 1) - sw_ts);
                              let starts = Link.plan_starts st.st_plan in
                              Trace.set_slice s_link ~ts:starts.(0)
                                ~dur:
                                  (starts.(keep - 1) + cell - starts.(0)))
                            per_stage
                        end);
                Link.set_interfere uplink on_interfere;
                let deliveries =
                  Array.map (fun s -> s + down_lat) down_starts
                in
                Sim.schedule_drop ~label:"net.rx_train" t.sim
                  ~delay:(deliveries.(0) - Sim.now t.sim)
                  (fun () ->
                    match t.rx_train_handlers.(dst) with
                    | Some f when Cell.Train.length train > 0 ->
                        f train ~rx_vci:final.st_out_vci ~deliveries
                    | _ ->
                        expand_rx t ~dest:dst ~rx_vci:final.st_out_vci ~train
                          ~deliveries 0);
                Some (Link.plan_accepts up_plan)))

let commit_train t ~host ~train ~first_attempt ~gap ~on_interfere =
  commit_train_gen t ~host ~train ~on_interfere ~plan_uplink:(fun uplink ->
      Link.plan_chain uplink ~n:(Cell.Train.length train) ~first_attempt ~gap)

let commit_train_feed t ~host ~train ~arrivals ~sched_lead ~on_interfere =
  commit_train_gen t ~host ~train ~on_interfere ~plan_uplink:(fun uplink ->
      Link.plan_feed uplink ~arrivals ~sched_lead ~refuse_occ:max_int)

(* --- signalling: route discovery and VCI allocation ------------------- *)

type duplex = { tx_vci : int; rx_vci : int }
type conn = { host_a : int; host_b : int; side_a : duplex; side_b : duplex }

(* The cell-header VCI field is 16 bits; allocators used to increment
   forever and silently alias past 65535 (multi-hop fabrics multiply
   per-trunk allocations, making overflow reachable). Refuse loudly. *)
let vci_ceiling = 0x1_0000

let alloc_vci what arr i =
  let v = arr.(i) in
  if v >= vci_ceiling then
    invalid_arg
      (Printf.sprintf
         "Network: %s VCI space exhausted (16-bit VCIs, 32..65535)" what);
  arr.(i) <- v + 1;
  v

(* Deterministic route of (switch, ingress port) hops from [src]'s ingress
   switch to [dst]'s egress switch. Clos picks the spine by a fixed hash of
   the endpoints (ECMP without randomness); Custom breadth-first-searches
   the trunk graph with lowest-index tie-breaks. *)
let route_hops t ~src ~dst =
  let asw, aport = t.host_attach.(src) in
  let bsw, _ = t.host_attach.(dst) in
  if asw = bsw then [ (asw, aport) ]
  else
    match t.topo with
    | Single _ -> assert false (* one switch: asw = bsw *)
    | Clos c ->
        let s = (src + dst) mod c.spine in
        [ (asw, aport); (c.pods + s, asw); (bsw, c.hosts_per_pod + s) ]
    | Custom _ ->
        (* predecessor-tracking BFS over the directed trunk map *)
        let nsw = Array.length t.switches in
        let prev = Array.make nsw None in
        let seen = Array.make nsw false in
        seen.(asw) <- true;
        let q = Queue.create () in
        Queue.add asw q;
        while (not seen.(bsw)) && not (Queue.is_empty q) do
          let sw = Queue.pop q in
          Array.iter
            (function
              | Some (To_switch { sw = nsw'; port; trunk = _ })
                when not seen.(nsw') ->
                  seen.(nsw') <- true;
                  prev.(nsw') <- Some (sw, port);
                  Queue.add nsw' q
              | _ -> ())
            t.dests.(sw)
        done;
        if not seen.(bsw) then
          invalid_arg
            (Printf.sprintf "Network.connect: no path between hosts %d and %d"
               src dst);
        let rec unwind sw acc =
          match prev.(sw) with
          | None -> (asw, aport) :: acc
          | Some (psw, in_port) -> unwind psw ((sw, in_port) :: acc)
        in
        unwind bsw []

(* Output port of [sw] whose link leads to ingress [next_port] of
   [next_sw], with the directed trunk index for VCI allocation. *)
let trunk_toward t sw ~next_sw ~next_port =
  let d = t.dests.(sw) in
  let rec find p =
    if p >= Array.length d then
      invalid_arg "Network: no trunk toward the next hop"
    else
      match d.(p) with
      | Some (To_switch { sw = s; port; trunk })
        when s = next_sw && port = next_port ->
          (p, trunk)
      | _ -> find (p + 1)
  in
  find 0

(* Install one direction of a connection: allocate the sender's uplink VCI,
   remap it through a fresh VCI on each trunk of the hop chain, and land on
   a fresh VCI on the receiver's downlink. Records the per-stage route-table
   keys for disconnect. *)
let install_route t ~src ~dst =
  let hops = route_hops t ~src ~dst in
  let tx_vci = alloc_vci "uplink" t.next_tx_vci src in
  let rec walk hops in_vci acc =
    match hops with
    | [] -> assert false
    | [ (sw, in_port) ] ->
        let _, out_port = t.host_attach.(dst) in
        let rx_vci = alloc_vci "downlink" t.next_rx_vci dst in
        Switch.add_route t.switches.(sw) ~in_port ~in_vci ~out_port
          ~out_vci:rx_vci;
        (List.rev ((sw, in_port, in_vci) :: acc), rx_vci)
    | (sw, in_port) :: ((next_sw, next_port) :: _ as rest) ->
        let out_port, trunk = trunk_toward t sw ~next_sw ~next_port in
        let out_vci = alloc_vci "trunk" t.next_trunk_vci trunk in
        Switch.add_route t.switches.(sw) ~in_port ~in_vci ~out_port ~out_vci;
        walk rest out_vci ((sw, in_port, in_vci) :: acc)
  in
  let stages, rx_vci = walk hops tx_vci [] in
  Hashtbl.replace t.conn_hops (src, tx_vci) stages;
  if t.obs_on then begin
    let vcis = Array.of_list (List.map (fun (_, _, v) -> v) stages) in
    let fl =
      Option.map (fun fs -> Flowstat.register fs ~src ~dst ~vcis) t.flowstat
    in
    let tr =
      {
        ft_src = src;
        ft_dst = dst;
        ft_vci = tx_vci;
        ft_rx_vci = rx_vci;
        ft_stages = Array.length vcis;
        ft_flow = fl;
        ft_seq = 0;
        ft_partials = Fifo.create ~dummy:no_partial;
      }
    in
    Hashtbl.replace t.tracks (src, tx_vci) tr;
    List.iteri
      (fun j (sw, in_port, in_vci) ->
        Hashtbl.replace t.hop_map (sw, in_port, in_vci) (tr, j))
      stages;
    Hashtbl.replace t.rx_map (dst, rx_vci) tr
  end;
  (tx_vci, rx_vci)

let connect t ~a ~b =
  check_host t a;
  check_host t b;
  if a = b then invalid_arg "Network.connect: a host cannot connect to itself";
  let vci_a_out, vci_b_in = install_route t ~src:a ~dst:b in
  let vci_b_out, vci_a_in = install_route t ~src:b ~dst:a in
  {
    host_a = a;
    host_b = b;
    side_a = { tx_vci = vci_a_out; rx_vci = vci_a_in };
    side_b = { tx_vci = vci_b_out; rx_vci = vci_b_in };
  }

let disconnect t conn =
  let side host vci =
    (match Hashtbl.find_opt t.conn_hops (host, vci) with
    | Some stages ->
        List.iter
          (fun (sw, in_port, in_vci) ->
            Switch.remove_route t.switches.(sw) ~in_port ~in_vci;
            Hashtbl.remove t.hop_map (sw, in_port, in_vci))
          stages;
        Hashtbl.remove t.conn_hops (host, vci)
    | None ->
        let sw, port = t.host_attach.(host) in
        Switch.remove_route t.switches.(sw) ~in_port:port ~in_vci:vci);
    match Hashtbl.find_opt t.tracks (host, vci) with
    | Some tr ->
        Hashtbl.remove t.rx_map (tr.ft_dst, tr.ft_rx_vci);
        Hashtbl.remove t.tracks (host, vci)
    | None -> ()
  in
  side conn.host_a conn.side_a.tx_vci;
  side conn.host_b conn.side_b.tx_vci
