open Engine

type proto = Udp | Tcp

let proto_number = function Udp -> 17 | Tcp -> 6
let header_size = 20

type handler = { h_cost : Buf.t -> int; h_fn : src:int -> Buf.t -> unit }

type t = {
  iface : Iface.t;
  addr : int;
  mutable udp : handler option;
  mutable tcp : handler option;
}

let ip_overhead_ns = 500 (* residual IP processing not folded into transports *)

(* A receive-side drop, counted by protocol and reason. The family is
   registered at the first drop, so dumps of runs without one are
   unchanged. *)
let rx_dropped ~proto reason =
  Metrics.Counter.inc
    (Metrics.counter ~help:"packets the IP suite dropped on receive"
       "ip_rx_dropped_total"
       [ ("proto", proto); ("reason", reason) ])

let handler_payload pkt =
  Buf.sub pkt ~pos:header_size ~len:(Buf.length pkt - header_size)

let attach iface ~addr =
  let t = { iface; addr; udp = None; tcp = None } in
  let rx_cost pkt =
    if Buf.length pkt < header_size then 0
    else
      let proto = Buf.get_uint8 pkt 9 in
      let h = if proto = 17 then t.udp else if proto = 6 then t.tcp else None in
      match h with
      | Some h ->
          (* cost model sees the payload; the sub is a zero-copy view *)
          ip_overhead_ns + h.h_cost (handler_payload pkt)
      | None -> ip_overhead_ns
  in
  let rx pkt =
    if Buf.length pkt < header_size then rx_dropped ~proto:"ipv4" "short"
    else if not (Checksum.verify_buf (Buf.sub pkt ~pos:0 ~len:header_size))
    then rx_dropped ~proto:"ipv4" "bad_checksum"
    else if Buf.get_uint16_be pkt 2 <> Buf.length pkt then
      rx_dropped ~proto:"ipv4" "length_mismatch"
    else
      let proto = Buf.get_uint8 pkt 9 in
      let src = Int32.to_int (Buf.get_uint32_be pkt 12) in
      let h =
        if proto = 17 then t.udp else if proto = 6 then t.tcp else None
      in
      match h with
      | Some h -> h.h_fn ~src (handler_payload pkt)
      | None -> rx_dropped ~proto:"ipv4" "unregistered_proto"
  in
  Iface.set_rx iface ~rx_cost_ns:rx_cost rx;
  t

let addr t = t.addr
let iface t = t.iface
let sim t = Iface.sim t.iface
let cpu t = Iface.cpu t.iface
let mtu t = Iface.mtu t.iface - header_size

let send t proto ?ctx ~dst ~cost_ns payload =
  let len = Buf.length payload in
  if len > mtu t then
    Fmt.invalid_arg
      "Ipv4.send: %d-byte payload exceeds the %d-byte MTU (no fragmentation)"
      len (mtu t);
  let hdr = Bytes.create header_size in
  Bytes.set_uint8 hdr 0 0x45;
  Bytes.set_uint8 hdr 1 0;
  Bytes.set_uint16_be hdr 2 (header_size + len);
  Bytes.set_uint16_be hdr 4 0 (* id *);
  Bytes.set_uint16_be hdr 6 0x4000 (* don't fragment *);
  Bytes.set_uint8 hdr 8 64 (* ttl *);
  Bytes.set_uint8 hdr 9 (proto_number proto);
  Bytes.set_uint16_be hdr 10 0 (* checksum placeholder *);
  Bytes.set_int32_be hdr 12 (Int32.of_int t.addr);
  Bytes.set_int32_be hdr 16 (Int32.of_int dst);
  let csum = Checksum.compute hdr ~pos:0 ~len:header_size in
  Bytes.set_uint16_be hdr 10 csum;
  (* header prepend is slice concatenation; the payload is never copied *)
  Iface.send t.iface ?ctx ~cost_ns:(cost_ns + ip_overhead_ns)
    (Buf.append (Buf.of_bytes hdr) payload)

let register t proto ~rx_cost_ns fn =
  let h = { h_cost = rx_cost_ns; h_fn = fn } in
  match proto with Udp -> t.udp <- Some h | Tcp -> t.tcp <- Some h
