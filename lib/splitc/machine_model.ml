open Engine

type spec = {
  name : string;
  effective_mips : float;
  overhead_us : float;
  rtt_us : float;
  bandwidth_mb : float;
}

let cm5 =
  {
    name = "CM-5";
    (* 33 MHz SPARC-2: narrow issue, ~0.7 instr/cycle *)
    effective_mips = 23.;
    overhead_us = 3.;
    rtt_us = 12.;
    bandwidth_mb = 10.;
  }

let meiko_cs2 =
  {
    name = "Meiko CS-2";
    (* 40 MHz SuperSPARC: superscalar, ~1.1 instr/cycle *)
    effective_mips = 44.;
    overhead_us = 11.;
    rtt_us = 25.;
    bandwidth_mb = 39.;
  }

type msg = {
  m_src : int;
  m_handler : int;
  m_args : int array;
  m_payload : Buf.t;
  m_is_reply : bool;
}

type node = {
  n_queue : msg Queue.t;
  n_cond : Sync.Condition.t;
  n_handlers : Transport.handler option array;
  mutable n_sent : int; (* messages sent by this node *)
  mutable n_processed_of_mine : int; (* my messages processed remotely *)
}

type fabric = { f_sim : Sim.t; f_spec : spec; f_nodes : node array }

let create sim ~nodes spec =
  {
    f_sim = sim;
    f_spec = spec;
    f_nodes =
      Array.init nodes (fun _ ->
          {
            n_queue = Queue.create ();
            n_cond = Sync.Condition.create sim;
            n_handlers = Array.make 256 None;
            n_sent = 0;
            n_processed_of_mine = 0;
          });
  }

let o_ns f = Sim.of_us_f f.f_spec.overhead_us

(* LogGP-style gap-per-byte: the sender's interface is occupied while the
   message body streams out, so bulk transfers serialize at the machine's
   bandwidth *)
let occupancy f len =
  int_of_float (Float.round (float_of_int len *. 1_000. /. f.f_spec.bandwidth_mb))

(* time-of-flight after the last byte leaves *)
let net_time f = Sim.of_us_f (f.f_spec.rtt_us /. 2.)

let charge_cycles f c =
  Proc.sleep f.f_sim
    ~time:(int_of_float (Float.round (float_of_int c *. 1_000. /. f.f_spec.effective_mips)))

(* Sending charges the sender's overhead o; the message lands in the
   destination queue after the network time; the receiver pays o again when
   it polls the message out. Delivery is reliable and ordered. *)
let send_msg f ~src ~dst msg =
  let me = f.f_nodes.(src) in
  me.n_sent <- me.n_sent + 1;
  Proc.sleep f.f_sim
    ~time:(o_ns f + occupancy f (Buf.length msg.m_payload));
  let there = f.f_nodes.(dst) in
  Sim.schedule_drop ~label:"splitc.net" f.f_sim ~delay:(net_time f) (fun () ->
      Queue.add msg there.n_queue;
      Sync.Condition.broadcast there.n_cond)

let rec dispatch f ~rank msg =
  let node = f.f_nodes.(rank) in
  Proc.sleep f.f_sim ~time:(o_ns f);
  (match node.n_handlers.(msg.m_handler) with
  | None -> Fmt.failwith "%s: no handler %d" f.f_spec.name msg.m_handler
  | Some h ->
      let reply =
        if msg.m_is_reply then None
        else
          Some
            (fun ~handler ?(args = [||]) ?(payload = Buf.empty) () ->
              send_msg f ~src:rank ~dst:msg.m_src
                {
                  m_src = rank;
                  m_handler = handler;
                  m_args = args;
                  m_payload = payload;
                  m_is_reply = true;
                })
      in
      h ~src:msg.m_src ~reply ~args:msg.m_args ~payload:msg.m_payload);
  let src_node = f.f_nodes.(msg.m_src) in
  src_node.n_processed_of_mine <- src_node.n_processed_of_mine + 1;
  (* wake the sender if it is blocked in flush *)
  Sync.Condition.broadcast src_node.n_cond

and poll f ~rank =
  let node = f.f_nodes.(rank) in
  let rec drain () =
    match Queue.take_opt node.n_queue with
    | Some msg ->
        dispatch f ~rank msg;
        drain ()
    | None -> ()
  in
  drain ()

let poll_until f ~rank pred =
  let node = f.f_nodes.(rank) in
  poll f ~rank;
  while not (pred ()) do
    if Queue.is_empty node.n_queue then Sync.Condition.wait node.n_cond;
    poll f ~rank
  done

let transport f ~rank =
  let node = f.f_nodes.(rank) in
  {
    Transport.rank;
    nodes = Array.length f.f_nodes;
    max_payload = 1 lsl 20;
    sim = f.f_sim;
    register = (fun idx h -> node.n_handlers.(idx) <- Some h);
    request =
      (fun ~dst ~handler ?(args = [||]) ?(payload = Buf.empty) () ->
        send_msg f ~src:rank ~dst
          {
            m_src = rank;
            m_handler = handler;
            m_args = args;
            m_payload = payload;
            m_is_reply = false;
          });
    poll_until = (fun pred -> poll_until f ~rank pred);
    flush =
      (fun () ->
        poll_until f ~rank (fun () -> node.n_processed_of_mine >= node.n_sent));
    charge_cycles = (fun c -> charge_cycles f c);
  }

let transports f = Array.init (Array.length f.f_nodes) (fun r -> transport f ~rank:r)
