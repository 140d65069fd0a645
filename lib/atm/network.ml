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
   direction, kept only while flow accounting or path records are active.
   The per-cell observers need no lookup: each stage's route entry holds a
   closure over the flow, and a PDU's cells carry its hop journal. *)
type ftrack = {
  ft_dst : int;
  ft_flow : Flowstat.flow option; (* when flow accounting is active *)
  ft_seq : int ref; (* next per-flow PDU sequence number *)
}

(* a PDU's tag holds its flow's track once resolved *)
type Cell.track += Tracked of ftrack

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
  conn_hops : (int * int, (int * int * int * int * int) list) Hashtbl.t;
    (* (src host, tx VCI) -> per-stage (switch, in port, in VCI, out port,
       out VCI), the route-table entries a disconnect must remove *)
  undeliverable : (int, Metrics.Counter.t) Hashtbl.t;
    (* lazily-created per-host counters; see [undeliverable_cell] *)
  obs_on : bool;
    (* flow accounting or path records were active at creation; gates
       every §17 hook so flags-off runs add no per-cell work *)
  flowstat : Flowstat.t option;
  tracks : (int * int, ftrack) Hashtbl.t; (* (src host, tx VCI) *)
  rx_flows : (int * int, Flowstat.flow) Hashtbl.t;
    (* (dst host, rx VCI), while flow accounting is on: the flow a
       downlink cell belongs to *)
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
  Journal.drop cell.Cell.tag.journal

(* --- flow observability hooks (DESIGN.md §17) ------------------------- *)

(* The cell to send, carrying its PDU's hop journal when one is wanted: for
   the span while spans are on, for the path record of a tracked flow
   while path records are on. The journal goes into the tag the PDU's
   cells share on first need; an untagged EOP cell gets a tag of its
   own. *)
let with_journal (cell : Cell.t) ~tracked =
  let tag = cell.Cell.tag in
  let wanted =
    (tag.ctx <> None && Span.enabled ()) || (tracked && Pathrec.enabled ())
  in
  if tag.journal <> None || not wanted then cell
  else if tag.ctx <> None then begin
    tag.journal <- Some (Journal.create ?ctx:tag.ctx ());
    cell
  end
  else if cell.Cell.eop then
    {
      cell with
      tag = { ctx = None; journal = Some (Journal.create ()); track = tag.track };
    }
  else cell

(* The flow track of the PDU [cell] belongs to: looked up on the PDU's
   first cell and kept in the tag its cells share, so the per-cell send
   does no lookup. A cell without a tag of its own is looked up every
   time. *)
let pdu_track t ~host (cell : Cell.t) =
  let tag = cell.Cell.tag in
  match tag.track with
  | Cell.Unresolved ->
      let track =
        match Hashtbl.find_opt t.tracks (host, cell.Cell.vci) with
        | Some tr -> Tracked tr
        | None -> Cell.Untracked
      in
      if tag != Cell.untagged then tag.track <- track;
      track
  | track -> track

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
      obs_on = Flowstat.observing ();
      flowstat = (if Flowstat.active () then Some (Flowstat.create ()) else None);
      tracks = Hashtbl.create 64;
      rx_flows = Hashtbl.create 64;
    }
  in
  if t.obs_on then
    (* settle provisional path records no later than any registry read *)
    Metrics.register_flush (fun () -> Pathrec.fold ~now:(Sim.now sim));
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
        if cell.Cell.eop then Journal.deliver cell.Cell.tag.journal;
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
  (* a cell an injected fault kills inside a link counts against its flow
     (DESIGN.md §17): an uplink or trunk loss at the stage it was
     entering, a downlink loss at the last stage, which forwarded it *)
  (match t.flowstat with
  | None -> ()
  | Some fs ->
      Array.iteri
        (fun h (sw, port) ->
          Link.set_on_loss uplinks.(h) (Switch.lost switches.(sw) ~port))
        fb.fb_attach;
      Array.iteri
        (fun k (_, _, sb, pb) ->
          Link.set_on_loss trunks.(k) (Switch.lost switches.(sb) ~port:pb))
        fb.fb_trunks;
      Array.iteri
        (fun h link ->
          Link.set_on_loss link (fun cell ->
              match Hashtbl.find_opt t.rx_flows (h, cell.Cell.vci) with
              | Some fl ->
                  Flowstat.drop fs fl
                    ~hop:(Array.length (Flowstat.flow_vcis fl) - 1)
              | None -> ()))
        downlinks);
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

(* pcap tap at the injection point: every cell its uplink accepts is
   captured once, as a LINKTYPE_SUNATM record; a TX-FIFO refusal the NI
   retries is not a cell on the wire. *)
let capture_iface ~host =
  Pcapng.iface ~name:(Printf.sprintf "atm%d" host)
    ~linktype:Pcapng.linktype_sunatm

let send t ~host cell =
  check_host t host;
  (* the uplink's on_accept hook counts the cell into the ingress port's
     in-flight gate *)
  let uplink = t.uplinks.(host) in
  let track = if t.obs_on then pdu_track t ~host cell else Cell.Untracked in
  let cell =
    with_journal cell
      ~tracked:(match track with Tracked _ -> true | _ -> false)
  in
  let journal = cell.Cell.tag.journal in
  if cell.Cell.eop then Journal.inject journal;
  let ok = Link.send uplink cell in
  if ok && Pcapng.enabled () then
    Pcapng.capture ~iface:(capture_iface ~host) (Cell.sunatm_bytes cell);
  (match (track, journal) with
  | Tracked tr, Some j when ok && cell.Cell.eop && Pathrec.enabled () ->
      (* numbered only now: a train truncation inside [Link.send] can
         hand sequence numbers back *)
      Journal.number j ~src:host ~dst:tr.ft_dst ~vci:cell.Cell.vci
        ~seq:tr.ft_seq
  | _ -> ());
  (match (ok, t.flowstat, track) with
  | false, Some fs, Tracked { ft_flow = Some fl; _ } ->
      (* the host TX FIFO refused the cell bound for stage 0 *)
      Flowstat.drop fs fl ~hop:0
  | _ -> ());
  ok

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

(* Publish a committed train once, as a plain record, to the observers that
   synthesize their output from plans (DESIGN.md §15, §17), in dump order,
   and collect their truncation undos. With none attached nothing is
   built. *)
let observe_train t ~host ~dst ~train ~uplink ~up_plan ~legs ~deliveries =
  let vci = Cell.Train.vci train in
  let track =
    if t.obs_on then Hashtbl.find_opt t.tracks (host, vci) else None
  in
  if track = None && not (Trainmode.synthesizing ()) then []
  else
    let n = Cell.Train.length train in
    let plan =
      {
        Trainplan.src = host;
        dst;
        vci;
        n;
        up_accepts = Link.plan_accepts up_plan;
        up_starts = Link.plan_starts up_plan;
        up_cell_time = Link.cell_time uplink;
        up_drops = Link.plan_drops up_plan;
        stages = Array.map (fun (st, _, _) -> st) (Array.of_list legs);
        deliveries;
      }
    in
    [
      (match (t.flowstat, track) with
      | Some fs, Some { ft_flow = Some fl; _ } -> Flowstat.on_train fs fl plan
      | _ -> Trainplan.no_undo);
      (let eop = Cell.Train.cell train (n - 1) in
       match (with_journal eop ~tracked:(track <> None)).Cell.tag.journal with
       | Some j when eop.Cell.eop ->
           let seq =
             match track with
             | Some tr when Pathrec.enabled () -> Some tr.ft_seq
             | _ -> None
           in
           Journal.of_plan plan j ~seq
       | _ -> Trainplan.no_undo);
      Trace.on_train plan;
      (if Pcapng.enabled () then
         Pcapng.on_train plan ~iface:(capture_iface ~host) (fun i ->
             Cell.sunatm_bytes (Cell.Train.cell train i))
       else Trainplan.no_undo);
    ]

(* Plan a whole train's journey across the fabric analytically: sender-paced
   chain on the uplink, then per stage a fabric transit and an arrival-fed
   plan on the stage's output link (trunk or downlink), walking the full
   hop chain. All-or-nothing — any refusal (legacy traffic in flight at any
   stage, a fault site, a queue at capacity, a same-instant tie)
   returns [None] and the caller stays on the per-cell path. On success
   each element holds planned state that folds lazily into its counters, a
   single event hands the train to the receiving host at the first cell's
   delivery instant, and a truncation listener un-plans everything past an
   interference point at every stage and runs the observers' undos. The
   owner must arrange for [on_interfere] to split its chain (it is
   installed as the uplink's interfere hook; clear it when the chain
   ends). *)
let commit_train t ~host ~train ~first_attempt ~gap ~on_interfere =
  check_host t host;
  let sw0, port0 = t.host_attach.(host) in
  if Cell.Train.length train = 0 || t.in_flight.(sw0).(port0) > 0 then None
  else
    (* Resolve the hop chain before planning anything: the route must
       exist at every stage (single-source output ports only) and every
       ingress port along it must have no un-settled real cells. *)
    let rec resolve sw in_port in_vci acc =
      match Switch.plan_route t.switches.(sw) ~in_port ~in_vci with
      | None -> None
      | Some (out_port, out_vci, link) -> (
          let acc = (sw, in_port, out_port, link) :: acc in
          match t.dests.(sw).(out_port) with
          | None -> None
          | Some (To_host dst) -> Some (List.rev acc, dst, out_vci)
          | Some (To_switch { sw = nsw; port = nport; trunk = _ }) ->
              if t.in_flight.(nsw).(nport) > 0 then None
              else resolve nsw nport out_vci acc)
    in
    (* Then plan each stage: cell i reaches a stage's switch one hop
       latency after leaving the previous link, is forwarded [transit]
       later, and feeds the stage's output link. *)
    let rec plan_stages prev_link prev_starts hops acc =
      match hops with
      | [] -> Some (List.rev acc)
      | (sw, in_port, out_port, link) :: rest -> (
          let transit = Switch.transit t.switches.(sw) in
          let lat = Link.cell_time prev_link + Link.propagation prev_link in
          let arrivals = Array.map (fun s -> s + lat + transit) prev_starts in
          let refuse_occ = Switch.output_queue_capacity t.switches.(sw) in
          match
            Link.plan_feed link ~arrivals ~sched_lead:transit ~refuse_occ
          with
          | None -> None
          | Some pl ->
              let st =
                {
                  Trainplan.sw;
                  in_port;
                  out_port;
                  transit;
                  arrivals;
                  starts = Link.plan_starts pl;
                  cell_time = Link.cell_time link;
                  queue_after = Link.plan_queue_after pl;
                }
              in
              plan_stages link st.starts rest ((st, link, pl) :: acc))
    in
    let uplink = t.uplinks.(host) in
    match resolve sw0 port0 (Cell.Train.vci train) [] with
    | None -> None
    | Some (hops, dst, rx_vci) -> (
        match
          Link.plan_chain uplink ~n:(Cell.Train.length train) ~first_attempt
            ~gap
        with
        | None -> None
        | Some up_plan -> (
            match plan_stages uplink (Link.plan_starts up_plan) hops [] with
            | None -> None
            | Some legs ->
                let up_hop = Link.commit_plan uplink up_plan ~fold_sent:true in
                let commits =
                  List.map
                    (fun ((st : Trainplan.stage), link, pl) ->
                      ( st.sw,
                        link,
                        Link.commit_plan link pl ~fold_sent:true,
                        Switch.commit_plan t.switches.(st.sw)
                          ~out_port:st.out_port ~times:st.arrivals
                          ~hw:st.queue_after ))
                    legs
                in
                let final, downlink, _ = List.nth legs (List.length legs - 1) in
                let down_lat = final.cell_time + Link.propagation downlink in
                let deliveries =
                  Array.map (fun s -> s + down_lat) final.starts
                in
                let undos =
                  observe_train t ~host ~dst ~train ~uplink ~up_plan ~legs
                    ~deliveries
                in
                Cell.Train.on_truncate train (fun ~keep ~now ->
                    Link.truncate_hop uplink up_hop ~keep ~now;
                    List.iter
                      (fun (sw, link, lhop, srec) ->
                        Switch.truncate_plan t.switches.(sw) srec ~keep;
                        Link.truncate_hop link lhop ~keep ~now)
                      commits;
                    List.iter (fun undo -> undo ~keep ~now) undos);
                Link.set_interfere uplink on_interfere;
                Sim.schedule_drop ~label:"net.rx_train" t.sim
                  ~delay:(deliveries.(0) - Sim.now t.sim)
                  (fun () ->
                    match t.rx_train_handlers.(dst) with
                    | Some f when Cell.Train.length train > 0 ->
                        f train ~rx_vci ~deliveries
                    | _ ->
                        (* hosts whose NI is not train-aware get one chained
                           event per cell *)
                        Cell.Train.expand t.sim ~label:"net.rx_train" train
                          ~rx_vci ~deliveries (fun cell ->
                            match t.rx_handlers.(dst) with
                            | Some f -> f cell
                            | None -> undeliverable_cell t ~host:dst cell));
                Some (Link.plan_accepts up_plan)))

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
   keys for disconnect. With flow accounting or path records on, each
   stage's route entry carries that stage's observer. *)
let install_route t ~src ~dst =
  let hops = route_hops t ~src ~dst in
  let tx_vci = alloc_vci "uplink" t.next_tx_vci src in
  (* VCI allocation first: the flow's label names the whole chain *)
  let rec alloc hops in_vci acc =
    match hops with
    | [] -> assert false
    | [ (sw, in_port) ] ->
        let _, out_port = t.host_attach.(dst) in
        let rx_vci = alloc_vci "downlink" t.next_rx_vci dst in
        (List.rev ((sw, in_port, in_vci, out_port, rx_vci) :: acc), rx_vci)
    | (sw, in_port) :: ((next_sw, next_port) :: _ as rest) ->
        let out_port, trunk = trunk_toward t sw ~next_sw ~next_port in
        let out_vci = alloc_vci "trunk" t.next_trunk_vci trunk in
        alloc rest out_vci ((sw, in_port, in_vci, out_port, out_vci) :: acc)
  in
  let stages, rx_vci = alloc hops tx_vci [] in
  let track =
    if not t.obs_on then None
    else
      let vcis = Array.of_list (List.map (fun (_, _, v, _, _) -> v) stages) in
      let fl =
        Option.map (fun fs -> Flowstat.register fs ~src ~dst ~vcis) t.flowstat
      in
      Option.iter (Hashtbl.replace t.rx_flows (dst, rx_vci)) fl;
      let tr = { ft_dst = dst; ft_flow = fl; ft_seq = ref 0 } in
      Hashtbl.replace t.tracks (src, tx_vci) tr;
      Some tr
  in
  List.iteri
    (fun hop (sw, in_port, in_vci, out_port, out_vci) ->
      (* per-cell flow accounting rides the stage's route entry *)
      let observe =
        match (t.flowstat, track) with
        | Some fs, Some { ft_flow = Some fl; _ } ->
            Some
              (fun ~forwarded ->
                if forwarded then Flowstat.count fs fl ~hop ~cells:1
                else Flowstat.drop fs fl ~hop)
        | _ -> None
      in
      Switch.add_route ?observe t.switches.(sw) ~in_port ~in_vci ~out_port
        ~out_vci)
    stages;
  Hashtbl.replace t.conn_hops (src, tx_vci) stages;
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
          (fun (sw, in_port, in_vci, _, _) ->
            Switch.remove_route t.switches.(sw) ~in_port ~in_vci)
          stages;
        Hashtbl.remove t.conn_hops (host, vci)
    | None ->
        let sw, port = t.host_attach.(host) in
        Switch.remove_route t.switches.(sw) ~in_port:port ~in_vci:vci);
    Hashtbl.remove t.tracks (host, vci)
  in
  side conn.host_a conn.side_a.tx_vci;
  side conn.host_b conn.side_b.tx_vci;
  Hashtbl.remove t.rx_flows (conn.host_a, conn.side_a.rx_vci);
  Hashtbl.remove t.rx_flows (conn.host_b, conn.side_b.rx_vci)
