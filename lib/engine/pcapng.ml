(* A pcapng (pcap-ng) capture writer over the virtual clock.

   Captured packets carry virtual-nanosecond timestamps: each interface
   declares if_tsresol = 9 (10^-9 seconds per tick), so the simulated
   times open unscaled in Wireshark. Little-endian throughout, matching
   the byte-order magic we write.

   Process-global like Trace: stamped with the live simulator's [Clock].
   Packets are retained in memory in capture order while enabled. A
   committed cell train adds its records at commit, stamped at their
   planned instants, so capture order is not time order; serialization
   sorts. The file is one Section Header Block, the Interface Description
   Blocks, then one Enhanced Packet Block per packet in (run, timestamp,
   interface name, bytes) order, and each interface that carries a packet
   is described in the order of its first one. That layout depends only on
   what was captured, so the per-cell path and the train path write the
   same bytes. *)

let linktype_ethernet = 1
let linktype_sunatm = 123

type iface = { if_name : string; linktype : int }

type packet = {
  p_iface : iface;
  run : int; (* [Clock.generation]: each simulator's clock restarts at 0 *)
  ts : int;
  data : string;
  mutable live : bool; (* false once a train truncation cut it *)
}

let on = ref false
let ifaces : iface list ref = ref [] (* registration order *)
let packets : packet list ref = ref [] (* capture order, reversed *)
let enabled () = !on

let start () =
  ifaces := [];
  packets := [];
  on := true

let stop () = on := false

let clear () =
  ifaces := [];
  packets := []

let iface ~name ~linktype =
  let f = { if_name = name; linktype } in
  match List.find_index (( = ) f) !ifaces with
  | Some i -> i
  | None ->
      ifaces := !ifaces @ [ f ];
      List.length !ifaces - 1

let record ~iface ~ts data =
  let p_iface = List.nth !ifaces iface in
  let p = { p_iface; run = Clock.generation (); ts; data; live = true } in
  packets := p :: !packets;
  p

let capture ~iface data =
  if !on then ignore (record ~iface ~ts:(Clock.now ()) data)

(* Cell i of a committed train enters its uplink at [up_accepts.(i)], where
   the per-cell path captures it; a truncation drops the cut suffix, which
   the per-cell path then captures for real. Called only while enabled. *)
let on_train (p : Trainplan.t) ~iface cell =
  let recs =
    Array.init p.n (fun i -> record ~iface ~ts:p.up_accepts.(i) (cell i))
  in
  fun ~keep ~now:_ ->
    for i = keep to p.n - 1 do
      recs.(i).live <- false
    done

(* The live packets in file order, and the interfaces that carry them in
   the order of their first packet. *)
let layout () =
  let order a b =
    let c = Int.compare a.run b.run in
    if c <> 0 then c
    else
      let c = Int.compare a.ts b.ts in
      if c <> 0 then c
      else compare (a.p_iface.if_name, a.data) (b.p_iface.if_name, b.data)
  in
  let pkts =
    List.filter (fun p -> p.live) !packets |> List.stable_sort order
  in
  let add seen { p_iface = f; _ } =
    if List.memq f seen then seen else f :: seen
  in
  (List.rev (List.fold_left add [] pkts), pkts)

let packet_count () =
  List.fold_left (fun n p -> if p.live then n + 1 else n) 0 !packets

let packet_times () = List.map (fun p -> p.ts) (snd (layout ()))

(* --- serialization --------------------------------------------------- *)

let u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let u32 b v =
  u16 b (v land 0xffff);
  u16 b ((v lsr 16) land 0xffff)

let pad4 b n =
  for _ = 1 to (4 - (n land 3)) land 3 do
    Buffer.add_char b '\000'
  done

(* An option: code, length, value padded to 32 bits. *)
let add_opt b code value =
  u16 b code;
  u16 b (String.length value);
  Buffer.add_string b value;
  pad4 b (String.length value)

let end_of_opts b = u32 b 0

(* Section Header Block: no options, section length unknown (-1). *)
let add_shb b =
  u32 b 0x0A0D0D0A;
  u32 b 28;
  u32 b 0x1A2B3C4D;
  u16 b 1;
  (* major *)
  u16 b 0;
  (* minor *)
  u32 b 0xFFFFFFFF;
  u32 b 0xFFFFFFFF;
  (* section length = -1 *)
  u32 b 28

(* Interface Description Block with if_name and if_tsresol=9 options. *)
let add_idb b f =
  let name_padded = 4 + String.length f.if_name + ((4 - (String.length f.if_name land 3)) land 3) in
  let len = 16 + name_padded + 8 (* tsresol opt *) + 4 (* end *) + 4 in
  u32 b 0x00000001;
  u32 b len;
  u16 b f.linktype;
  u16 b 0;
  (* reserved *)
  u32 b 0;
  (* snaplen: unlimited *)
  add_opt b 2 f.if_name;
  add_opt b 9 "\009";
  (* if_tsresol: nanoseconds *)
  end_of_opts b;
  u32 b len

(* Enhanced Packet Block; timestamp in interface resolution (ns). *)
let add_epb b ~id p =
  let dlen = String.length p.data in
  (* fixed part: type, length, iface, ts hi/lo, captured, original = 28 *)
  let len = 28 + dlen + ((4 - (dlen land 3)) land 3) + 4 in
  u32 b 0x00000006;
  u32 b len;
  u32 b id;
  u32 b ((p.ts lsr 32) land 0xFFFFFFFF);
  u32 b (p.ts land 0xFFFFFFFF);
  u32 b dlen;
  (* captured *)
  u32 b dlen;
  (* original *)
  Buffer.add_string b p.data;
  pad4 b dlen;
  u32 b len

let to_string () =
  let described, pkts = layout () in
  let b = Buffer.create 4096 in
  add_shb b;
  List.iter (add_idb b) described;
  let id p = Option.get (List.find_index (( == ) p.p_iface) described) in
  List.iter (fun p -> add_epb b ~id:(id p) p) pkts;
  Buffer.contents b

let write_file path =
  let oc = open_out_bin path in
  output_string oc (to_string ());
  close_out oc
