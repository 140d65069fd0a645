(* The custom-protocol argument of §1: streaming MPEG-like video with an
   application-specific retransmission policy, built directly on raw U-Net.

   Frames alternate between key frames (I, must arrive: retransmitted until
   acknowledged) and delta frames (P, time-sensitive: never retransmitted —
   a late delta is useless). A kernel stack could only offer one reliability
   policy for the whole connection; user-level access lets the protocol
   embody knowledge of frame interdependencies. Run:

     dune exec examples/video_stream.exe
*)

open Engine

let n_frames = 120
let i_frame_every = 12
let i_frame_size = 3_000
let p_frame_size = 800
let frame_interval = Sim.ms 3 (* a brisk synthetic stream *)

(* header: [frame_no u32][kind u8] *)
let mk_frame ~no ~key size =
  let b = Bytes.create size in
  Bytes.set_int32_be b 0 (Int32.of_int no);
  Bytes.set_uint8 b 4 (if key then 1 else 0);
  b

let () =
  let cluster = Cluster.create ~hosts:2 () in
  let tx = Cluster.node cluster 0 and rx = Cluster.node cluster 1 in
  let ep_tx, alloc_tx = Cluster.simple_endpoint tx in
  let ep_rx, alloc_rx = Cluster.simple_endpoint ~free_buffers:40 rx in
  let ch_tx, ch_rx = Unet.connect_pair (tx.unet, ep_tx) (rx.unet, ep_rx) in

  (* inject cell loss: the switch-bound fiber drops 1% of cells, so a
     meaningful share of multi-cell frames dies in reassembly *)
  Atm.Link.set_fault (Atm.Network.uplink cluster.net ~host:0)
    (Fault.create ~site:"up.0" { Fault.none with seed = 7; loss = 0.01 });

  let key_acked = Hashtbl.create 32 in
  let got_key = ref 0 and got_delta = ref 0 and retx = ref 0 in

  (* receiver: ack key frames (single-cell acks), consume deltas silently *)
  ignore
    (Proc.spawn ~name:"viewer" cluster.sim (fun () ->
         let rec loop () =
           let d = Unet.recv rx.unet ep_rx in
           (match d.rx_payload with
           | Unet.Desc.Buffers ((off, _) :: _) ->
               let hdr = Unet.Segment.read ep_rx.segment ~off ~len:5 in
               let no = Int32.to_int (Bytes.get_int32_be hdr 0) in
               let key = Bytes.get_uint8 hdr 4 = 1 in
               if key then begin
                 incr got_key;
                 (* single-cell ack naming the frame *)
                 let ack = Bytes.create 4 in
                 Bytes.set_int32_be ack 0 (Int32.of_int no);
                 ignore
                   (Unet.send rx.unet ep_rx
                      (Unet.Desc.tx ~chan:ch_rx
                         (Unet.Desc.Inline (Buf.of_bytes ack))))
               end
               else incr got_delta;
               Unet.release rx.unet ep_rx alloc_rx d
           | _ -> ());
           loop ()
         in
         loop ()));

  (* sender: stream frames; retransmit unacked key frames on a deadline.
     Each frame is staged into segment blocks that come back once the NI
     has injected it. *)
  let stager =
    Unet.stager tx.unet ep_tx alloc_tx ~layer:"video_tx" ~wait:(Sim.us 5)
      ~on_full:`Retry
  in
  ignore
    (Proc.spawn ~name:"streamer" cluster.sim (fun () ->
         let send_frame frame =
           Unet.stage stager ~chan:ch_tx (Buf.of_bytes frame)
         in
         let drain_acks () =
           let rec go () =
             match Unet.poll tx.unet ep_tx with
             | Some { Unet.Desc.rx_payload = Unet.Desc.Inline b; _ } ->
                 Hashtbl.replace key_acked (Int32.to_int (Buf.get_uint32_be b 0))
                   true;
                 go ()
             | Some _ -> go ()
             | None -> ()
           in
           go ()
         in
         for no = 1 to n_frames do
           let key = no mod i_frame_every = 1 in
           let frame =
             mk_frame ~no ~key (if key then i_frame_size else p_frame_size)
           in
           send_frame frame;
           (* key frames: retransmit every 500 us until acknowledged;
              delta frames: fire and forget *)
           if key then begin
             Hashtbl.replace key_acked no false;
             let rec ensure tries =
               drain_acks ();
               if not (Hashtbl.find key_acked no) then begin
                 Proc.sleep cluster.sim ~time:(Sim.us 500);
                 drain_acks ();
                 if not (Hashtbl.find key_acked no) then begin
                   incr retx;
                   send_frame frame;
                   if tries < 50 then ensure (tries + 1)
                 end
               end
             in
             ensure 0
           end;
           Proc.sleep cluster.sim ~time:frame_interval
         done));

  Sim.run ~until:(Sim.sec 5) cluster.sim;
  let keys = n_frames / i_frame_every in
  Format.printf
    "streamed %d frames over a 1%%-cell-loss fiber:@.  key frames   : %d/%d \
     delivered (%d retransmissions — all recovered)@.  delta frames : %d/%d \
     delivered (lost ones skipped, never retransmitted)@."
    n_frames !got_key keys !retx !got_delta (n_frames - keys);
  assert (!got_key >= keys)
