type reply_fn =
  handler:int -> ?args:int array -> ?payload:Engine.Buf.t -> unit -> unit

type handler =
  src:int -> reply:reply_fn option -> args:int array -> payload:Engine.Buf.t -> unit

type t = {
  rank : int;
  nodes : int;
  max_payload : int;
  sim : Engine.Sim.t;
  register : int -> handler -> unit;
  request :
    dst:int ->
    handler:int ->
    ?args:int array ->
    ?payload:Engine.Buf.t ->
    unit ->
    unit;
  poll_until : (unit -> bool) -> unit;
  flush : unit -> unit;
  charge_cycles : int -> unit;
}

let of_uam am =
  let cpu = Unet.cpu (Uam.unet am) in
  {
    rank = Uam.rank am;
    nodes = Uam.nodes am;
    max_payload = Uam.max_payload am;
    sim = Unet.sim (Uam.unet am);
    register =
      (fun idx h ->
        Uam.register_handler am idx (fun am ~src tk ~args ~payload ->
            let reply =
              Option.map
                (fun tk ~handler ?args ?payload () ->
                  Uam.reply am tk ~handler ?args ?payload ())
                tk
            in
            h ~src ~reply ~args ~payload));
    request =
      (fun ~dst ~handler ?args ?payload () ->
        Uam.request am ~dst ~handler ?args ?payload ());
    poll_until = (fun pred -> Uam.poll_until am pred);
    flush = (fun () -> Uam.flush am);
    charge_cycles = (fun c -> Host.Cpu.charge_cycles cpu c);
  }
