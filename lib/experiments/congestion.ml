(* §7.8's warning, after Romanow & Floyd: "TCP can perform poorly over ATM
   if the segment size is large, due to the fact that the underlying cell
   reassembly mechanism causes the entire segment to be discarded if a
   single ATM cell is dropped."

   Two senders converge on one receiver through a switch whose output port
   has only a small cell buffer, so cells genuinely drop under the overload.
   The same contest is run with 2048-byte segments (the paper's standard
   U-Net TCP configuration) and with 9148-byte segments: the large segments
   lose a whole 191-cell PDU per dropped cell and goodput collapses, while
   the small segments degrade gracefully. Fairness between the two
   competing flows is checked as well. *)

open Engine

type flow = {
  goodput_mb : float;
  retransmits : int;
  finished_at : Engine.Sim.time;
}

type contest = {
  mss : int;
  flows : flow list;
  makespan_aggregate_mb : float;
      (* total bytes of both flows over the time until the *last* finishes:
         the honest aggregate when one flow captures the link *)
  cells_dropped : int;
  reassembly_errors : int;
}

type t = { small_seg : contest; large_seg : contest }

let run_contest ~mss ~total ~switch_cells =
  let net_config =
    { Atm.Network.default_config with switch_queue_capacity = switch_cells }
  in
  let c = Cluster.create ~hosts:3 ~net_config () in
  (* senders 0 and 1 both stream to receiver 2 *)
  let cfg = { (Ipstack.Tcp.unet_config ~window:(32 * 1024) ()) with mss } in
  let bed sender = Common.tcp_pair ~mtu:9_188 c (sender, 2) cfg in
  let b0 = bed 0 in
  let b1 = bed 1 in
  let data = Bytes.make total '\000' in
  let f0 = Common.tcp_flow b0 data in
  let f1 = Common.tcp_flow ~port:81 b1 data in
  Sim.run ~until:(Sim.sec 300) c.sim;
  let nic2 = Option.get (Cluster.node c 2).Cluster.i960 in
  (* sender 0's flow (port 80), then sender 1's (port 81) *)
  let flows =
    List.map
      (fun (f : Common.tcp_flow) ->
        {
          goodput_mb = Common.tcp_goodput f;
          retransmits = Common.tcp_retransmits f;
          finished_at = f.finished_at;
        })
      [ f0; f1 ]
  in
  let makespan =
    List.fold_left (fun a f -> max a f.finished_at) 1 flows
  in
  {
    mss;
    flows;
    makespan_aggregate_mb = Common.mb_per_s (2 * total) makespan;
    cells_dropped = Atm.Switch.cells_dropped (Atm.Network.switch c.net);
    reassembly_errors = Ni.I960_nic.reassembly_errors nic2;
  }

let run ~quick =
  let total = (if quick then 1 else 3) * 1024 * 1024 in
  (* a shallow 128-cell output buffer: two saturating senders overflow it *)
  let switch_cells = 128 in
  {
    small_seg = run_contest ~mss:2_048 ~total ~switch_cells;
    large_seg = run_contest ~mss:9_148 ~total ~switch_cells;
  }

let print t =
  Format.printf
    "Congestion over ATM (§7.8, after Romanow & Floyd): two TCP flows \
     converge on one port with a 128-cell output buffer@.@.";
  let row ct =
    [
      string_of_int ct.mss;
      Printf.sprintf "%.2f" ct.makespan_aggregate_mb;
      String.concat " / "
        (List.map (fun f -> Printf.sprintf "%.2f" f.goodput_mb) ct.flows);
      string_of_int
        (List.fold_left (fun a f -> a + f.retransmits) 0 ct.flows);
      string_of_int ct.cells_dropped;
      string_of_int ct.reassembly_errors;
    ]
  in
  Common.print_table
    ~header:
      [ "MSS"; "aggregate (MB/s)"; "per-flow :80 / :81 (MB/s)"; "retransmits";
        "cells dropped"; "PDUs killed" ]
    ~rows:[ row t.small_seg; row t.large_seg ]

let checks t =
  let min_flow ct =
    List.fold_left (fun a f -> Float.min a f.goodput_mb) infinity ct.flows
  in
  let max_flow ct =
    List.fold_left (fun a f -> Float.max a f.goodput_mb) 0. ct.flows
  in
  [
    ( "congestion actually happened (cells dropped in both contests)",
      t.small_seg.cells_dropped > 0 && t.large_seg.cells_dropped > 0 );
    ( "dropped cells killed whole PDUs (reassembly errors)",
      t.large_seg.reassembly_errors > 0 );
    ( "small segments sustain decent aggregate goodput under congestion",
      t.small_seg.makespan_aggregate_mb >= 8. );
    ( "large segments finish the contest substantially slower (loss\n\
       \       amplification: one dropped cell discards a 191-cell segment)",
      t.large_seg.makespan_aggregate_mb
      <= 0.8 *. t.small_seg.makespan_aggregate_mb );
    ( "the contested flows share within 4x of each other (2048 B MSS)",
      max_flow t.small_seg <= 4. *. Float.max 0.01 (min_flow t.small_seg) );
    ( "large segments show the capture effect (per-flow rates >4x apart)",
      max_flow t.large_seg > 4. *. Float.max 0.01 (min_flow t.large_seg) );
  ]
