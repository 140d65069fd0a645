(** TCP (§7.7-7.8): sliding-window reliable byte streams with slow start,
    congestion avoidance, fast retransmit, Jacobson RTT estimation and
    go-back-N recovery — implemented once and instantiated both at user
    level over U-Net (2048-byte segments, 8 KB windows, 1 ms timers, no
    delayed acks) and as the kernel stack (9 KB segments, up to 64 KB
    windows, 500 ms timer granularity, 200 ms delayed acks). *)

type config = {
  mss : int;
  sndbuf : int;  (** send buffer; bounds data retained for retransmission *)
  rcvbuf : int;  (** receive buffer; bounds the advertised window *)
  granularity : Engine.Sim.time;
      (** protocol timer granularity: every timeout rounds up to a multiple
          (1 ms for U-Net TCP vs the BSD pr_slow_timeout 500 ms, §7.8) *)
  delayed_ack : bool;  (** delay the ack of every second packet (§7.8) *)
  delack_timeout : Engine.Sim.time;
  initial_rto : Engine.Sim.time;
  max_rto : Engine.Sim.time;
  send_cost : int -> int;  (** per-segment processing, payload len -> ns *)
  recv_cost : int -> int;
}

val unet_config : ?window:int -> unit -> config
(** The paper's standard U-Net TCP configuration ([window] defaults to the
    8 KB of Figure 8). *)

val kernel_config :
  ?window:int -> ?mss:int -> Host.Kernel.config -> config
(** Kernel TCP: 64 KB window and 9148-byte segments over ATM by default. *)

type stack

val attach : Ipv4.t -> config -> stack
val ip : stack -> Ipv4.t

type t
(** A connection endpoint. *)

type listener

val listen : stack -> port:int -> listener
val accept : listener -> t
(** Block until a connection is established on this port. *)

val connect : stack -> dst:int -> dst_port:int -> ?src_port:int -> unit -> t
(** Active open; blocks through the three-way handshake. *)

val send : t -> bytes -> unit
(** Append to the stream; blocks while the send buffer is full. *)

val recv : t -> max:int -> bytes
(** Block for at least one byte; returns up to [max]. Empty result = EOF. *)

val recv_exact : t -> len:int -> bytes
(** Read exactly [len] bytes (raises [End_of_file] on premature EOF). *)

val close : t -> unit
(** Send FIN once buffered data drains; returns without waiting. *)

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

val state : t -> state
val pp_state : Format.formatter -> state -> unit

(* statistics *)
val retransmits : t -> int
val fast_retransmits : t -> int
val timeouts : t -> int

val unacked : t -> int
(** Stream bytes sent but not yet acknowledged by the peer. *)

val cwnd : t -> int
val srtt_us : t -> float
