(* Loss sweep (extension): drive the deterministic fault injector at the
   host uplinks and sweep the Bernoulli cell-loss rate, measuring how the
   two reliable layers recover — UAM's go-back-N window and TCP over the
   U-Net IP path. At every rate both transfers must complete with
   byte-identical payloads; the cost of recovery shows up as lost goodput,
   inflated round-trip latency, and retransmission counts. The number of
   injected faults is also checked against the analytic expectation
   (rate x cells consulted at the faulted links), which validates that the
   injector draws are honest Bernoulli trials. *)

open Engine

type leg = {
  goodput_mb : float;
  retransmits : int;
  completed : bool;
  intact : bool;  (** received bytes identical to what was sent *)
  delivered : int;  (** cells the faulted uplinks actually forwarded *)
  injected : int;  (** fault decisions drawn while this leg ran *)
}

type point = {
  rate : float;
  uam : leg;
  tcp : leg;
  rtt_us : float;  (** mean UAM request/reply RTT, recovery included *)
}

type t = { points : point list }

let seed = 42

let fault_spec rate =
  { Fault.none with Fault.seed; sites = [ Fault.Link_up ]; loss = rate }

(* Run [f] with the spec installed as the process-global fault
   configuration, so the clusters [f] builds pick it up at construction
   exactly as a [--fault] CLI run would. Zero rate runs with no spec at
   all: the lossless control must not even construct injectors. *)
let with_fault rate f =
  if rate <= 0. then f ()
  else begin
    Fault.configure (Some (fault_spec rate));
    Fun.protect ~finally:(fun () -> Fault.configure None) f
  end

(* Cells the injector was consulted for are the ones the link actually
   forwarded plus the ones the injector itself dropped; transmit-FIFO
   overflows (the i960 retries those) never reach the injector, so
   [cells_offered] would overcount the Bernoulli trials. *)
let delivered_uplinks (c : Cluster.t) =
  let acc = ref 0 in
  Array.iteri
    (fun host _ ->
      acc := !acc + Atm.Link.cells_sent (Atm.Network.uplink c.Cluster.net ~host))
    c.Cluster.nodes;
  !acc

(* a byte pattern that makes truncation, reordering and zero-fill visible *)
let pattern k total = Bytes.init total (fun i -> Char.chr ((i * k + 7) land 0xff))

let run_uam ~rate ~total =
  with_fault rate (fun () ->
      (* the aggressive timeouts of the loss tests: base 2 ms, backoff
         capped at 16 ms so deep loss runs still converge quickly *)
      let config =
        { Uam.default_config with rto = Sim.ms 2; rto_max = Sim.ms 16 }
      in
      let c, a0, a1 = Common.uam_pair ~config () in
      let x0 = Uam.Xfer.attach a0 and x1 = Uam.Xfer.attach a1 in
      let region = Bytes.make total '\000' in
      Uam.Xfer.register_region x1 ~id:1 region;
      let data = pattern 131 total in
      let before = Fault.injected_total () in
      let t_done = ref 0 and completed = ref false in
      ignore
        (Proc.spawn ~name:"client" c.Cluster.sim (fun () ->
             Uam.Xfer.store_sync x0 ~dst:1 ~region:1 ~offset:0 data;
             t_done := Sim.now c.Cluster.sim;
             completed := true));
      Sim.run ~until:(Sim.sec 60) c.Cluster.sim;
      let secs = Sim.to_sec !t_done in
      {
        goodput_mb =
          (if secs <= 0. then 0. else float_of_int total /. 1e6 /. secs);
        retransmits = Uam.retransmissions a0;
        completed = !completed;
        intact = !completed && Bytes.equal region data;
        delivered = delivered_uplinks c;
        injected = Fault.injected_total () - before;
      })

let run_tcp ~rate ~total =
  with_fault rate (fun () ->
      let c = Cluster.create () in
      (* the paper's standard U-Net TCP configuration: 2048-byte segments
         keep the loss-amplification of big AAL5 PDUs bounded (§7.8) *)
      let cfg =
        { (Ipstack.Tcp.unet_config ~window:(32 * 1024) ()) with mss = 2_048 }
      in
      let bed = Common.tcp_pair ~mtu:9_188 c (0, 1) cfg in
      let before = Fault.injected_total () in
      let f = Common.tcp_flow bed (pattern 197 total) in
      Sim.run ~until:(Sim.sec 120) c.Cluster.sim;
      let completed = f.received = total in
      {
        goodput_mb =
          (if f.finished_at <= 0 then 0. else Common.tcp_goodput f);
        retransmits = Common.tcp_retransmits f;
        completed;
        intact = completed && f.intact;
        delivered = delivered_uplinks c;
        injected = Fault.injected_total () - before;
      })

let run_rtt ~rate ~iters =
  with_fault rate (fun () -> Common.uam_rtt ~iters ~size:256 ())

let rates ~quick = if quick then [ 0.; 0.01 ] else [ 0.; 0.001; 0.005; 0.01 ]

let run ~quick =
  let total_uam = (if quick then 128 else 512) * 1024 in
  let total_tcp = (if quick then 256 else 1024) * 1024 in
  let iters = if quick then 30 else 100 in
  {
    points =
      List.map
        (fun rate ->
          {
            rate;
            uam = run_uam ~rate ~total:total_uam;
            tcp = run_tcp ~rate ~total:total_tcp;
            rtt_us = run_rtt ~rate ~iters;
          })
        (rates ~quick);
  }

let series t =
  [
    ( "uam-store-goodput-MB/s",
      List.map (fun p -> (p.rate, p.uam.goodput_mb)) t.points );
    ("tcp-goodput-MB/s", List.map (fun p -> (p.rate, p.tcp.goodput_mb)) t.points);
    ("uam-rtt-us", List.map (fun p -> (p.rate, p.rtt_us)) t.points);
  ]

let print t =
  Format.printf
    "Loss sweep: seeded Bernoulli cell loss at the host uplinks (seed %d); \
     go-back-N and TCP must deliver byte-identical payloads@.@."
    seed;
  let row p =
    [
      Printf.sprintf "%.3f%%" (p.rate *. 100.);
      Printf.sprintf "%.2f" p.uam.goodput_mb;
      string_of_int p.uam.retransmits;
      Printf.sprintf "%.1f" p.rtt_us;
      Printf.sprintf "%.2f" p.tcp.goodput_mb;
      string_of_int p.tcp.retransmits;
      string_of_int (p.uam.injected + p.tcp.injected);
      Printf.sprintf "%.0f"
        (p.rate
        *. float_of_int
             (p.uam.delivered + p.uam.injected + p.tcp.delivered
            + p.tcp.injected));
      (if p.uam.intact && p.tcp.intact then "yes" else "NO");
    ]
  in
  Common.print_table
    ~header:
      [ "loss"; "UAM store (MB/s)"; "UAM retx"; "UAM RTT (us)";
        "TCP (MB/s)"; "TCP retx"; "injected"; "expected"; "intact" ]
    ~rows:(List.map row t.points)

let checks t =
  let zero = List.hd t.points in
  let lossy = List.filter (fun p -> p.rate > 0.) t.points in
  let worst = List.nth t.points (List.length t.points - 1) in
  let analytic_ok p =
    let leg_ok (leg : leg) =
      (* trials = cells consulted = forwarded + dropped by the injector *)
      let e = p.rate *. float_of_int (leg.delivered + leg.injected) in
      let sd = sqrt (e *. (1. -. p.rate)) in
      Float.abs (float_of_int leg.injected -. e) <= (4. *. sd) +. 10.
    in
    leg_ok p.uam && leg_ok p.tcp
  in
  [
    ( "the lossless control injects nothing and never retransmits",
      zero.rate = 0. && zero.uam.injected = 0 && zero.tcp.injected = 0
      && zero.uam.retransmits = 0 );
    ( "every transfer completes at every loss rate",
      List.for_all (fun p -> p.uam.completed && p.tcp.completed) t.points );
    ( "payloads are byte-identical after recovery at every loss rate",
      List.for_all (fun p -> p.uam.intact && p.tcp.intact) t.points );
    ( "1% loss forces recovery at both layers (retransmissions observed)",
      worst.uam.retransmits > 0 && worst.tcp.retransmits > 0 );
    ( "injected fault counts track the analytic expectation",
      List.for_all analytic_ok lossy );
    ( "goodput degrades under 1% loss at both layers",
      worst.uam.goodput_mb < zero.uam.goodput_mb
      && worst.tcp.goodput_mb < zero.tcp.goodput_mb );
    ( "loss inflates the mean UAM round trip (timeout recovery in the tail)",
      worst.rtt_us > zero.rtt_us );
  ]
