type nic_kind = Sba200_unet | Sba200_fore | Sba100

type node = {
  host : int;
  cpu : Host.Cpu.t;
  unet : Unet.t;
  i960 : Ni.I960_nic.t option;
  sba100 : Ni.Sba100.t option;
}

type t = { sim : Engine.Sim.t; net : Atm.Network.t; nodes : node array }

(* CLI hook (unetsim --topology): the fabric shape used when a caller
   passes no explicit [?topology]. *)
let default_topology : Atm.Network.topology option ref = ref None
let set_default_topology topo = default_topology := topo

let create ?(hosts = 2) ?topology ?(net_config = Atm.Network.default_config)
    ?(machine = Host.Machine.ss20) ?(nic = Sba200_unet) ?nic_config () =
  let topology =
    match topology with
    | Some topo -> topo
    | None -> (
        match !default_topology with
        | Some topo -> topo
        | None -> Atm.Network.Single hosts)
  in
  let hosts = Atm.Network.topology_hosts topology in
  let sim = Engine.Sim.create () in
  let net = Atm.Network.create_topo sim ~topology net_config in
  let nodes =
    Array.init hosts (fun host ->
        let cpu = Host.Cpu.create ~host sim machine in
        match nic with
        | (Sba200_unet | Sba200_fore) as kind ->
            let default =
              if kind = Sba200_unet then Ni.I960_nic.sba200_unet
              else Ni.I960_nic.sba200_fore
            in
            let i960 =
              Ni.I960_nic.create net ~host
                (Option.value nic_config ~default)
            in
            let unet =
              Unet.create ~cpu ~net ~host (Ni.I960_nic.backend i960)
            in
            { host; cpu; unet; i960 = Some i960; sba100 = None }
        | Sba100 ->
            let nic = Ni.Sba100.create net ~host ~cpu () in
            let unet = Unet.create ~cpu ~net ~host (Ni.Sba100.backend nic) in
            { host; cpu; unet; i960 = None; sba100 = Some nic })
  in
  { sim; net; nodes }

let node t i = t.nodes.(i)

let simple_endpoint ?(emulated = false) ?(direct_access = false)
    ?(seg_size = 256 * 1024) ?(rx_slots = 64) ?(free_buffers = 32)
    ?(buffer_size = 4160) node =
  let ep =
    match
      Unet.create_endpoint node.unet ~emulated ~direct_access ~rx_slots
        ~free_slots:(max 1 free_buffers) ~seg_size ()
    with
    | Ok ep -> ep
    | Error e -> Fmt.invalid_arg "simple_endpoint: %a" Unet.pp_error e
  in
  let alloc = Unet.Segment.Allocator.create ep.segment ~block:buffer_size in
  for _ = 1 to free_buffers do
    match Unet.Segment.Allocator.alloc alloc with
    | Some (off, len) -> (
        match Unet.provide_free_buffer node.unet ep ~off ~len with
        | Ok () -> ()
        | Error e -> Fmt.invalid_arg "simple_endpoint: %a" Unet.pp_error e)
    | None -> invalid_arg "simple_endpoint: segment too small for free buffers"
  done;
  (ep, alloc)
