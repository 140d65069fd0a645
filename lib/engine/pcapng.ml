(* A pcapng (pcap-ng) capture writer over the virtual clock.

   Captured packets carry virtual-nanosecond timestamps: each interface
   declares if_tsresol = 9 (10^-9 seconds per tick), so the simulated
   times open unscaled in Wireshark. Little-endian throughout, matching
   the byte-order magic we write.

   Process-global like Trace: stamped with the live simulator's [Clock].
   Packets are retained in memory while enabled and serialized on
   demand, so block layout is deterministic: one Section Header Block,
   the Interface Description Blocks in registration order, then one
   Enhanced Packet Block per captured packet in capture order. *)

let linktype_ethernet = 1
let linktype_sunatm = 123

type iface = { if_name : string; linktype : int }
type packet = { p_iface : int; ts : int; data : string }

let on = ref false
let ifaces : iface list ref = ref [] (* registration order, reversed *)
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
  let rec find i = function
    | [] -> None
    | f :: _ when f.if_name = name && f.linktype = linktype -> Some i
    | _ :: tl -> find (i + 1) tl
  in
  let known = List.rev !ifaces in
  match find 0 known with
  | Some i -> i
  | None ->
      ifaces := { if_name = name; linktype } :: !ifaces;
      List.length known

let capture ~iface data =
  if !on then
    packets := { p_iface = iface; ts = Clock.now (); data } :: !packets

let packet_count () = List.length !packets
let packet_times () = List.rev_map (fun p -> p.ts) !packets

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
let add_epb b p =
  let dlen = String.length p.data in
  (* fixed part: type, length, iface, ts hi/lo, captured, original = 28 *)
  let len = 28 + dlen + ((4 - (dlen land 3)) land 3) + 4 in
  u32 b 0x00000006;
  u32 b len;
  u32 b p.p_iface;
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
  let b = Buffer.create 4096 in
  add_shb b;
  List.iter (add_idb b) (List.rev !ifaces);
  List.iter (add_epb b) (List.rev !packets);
  Buffer.contents b

let write_file path =
  let oc = open_out_bin path in
  output_string oc (to_string ());
  close_out oc
