let log_src = Logs.Src.create "engine.proc" ~doc:"simulated processes"

module Log = (val Logs.src_log log_src : Logs.LOG)

type state = Running | Done | Failed of exn

type t = {
  pname : string;
  mutable pstate : state;
  mutable waiters : (unit -> unit) list;
}

exception Not_in_process

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let state p = p.pstate
let name p = p.pname

let finish p st =
  (match st with
  | Failed e when p.waiters = [] ->
      (* nobody is joining this process: make the failure visible *)
      Log.warn (fun m ->
          m "process %S died unobserved: %s" p.pname (Printexc.to_string e))
  | _ -> ());
  p.pstate <- st;
  let ws = List.rev p.waiters in
  p.waiters <- [];
  List.iter (fun resume -> resume ()) ws

let spawn ?(name = "proc") sim body =
  let p = { pname = name; pstate = Running; waiters = [] } in
  let handler =
    {
      Effect.Deep.retc = (fun () -> finish p Done);
      exnc = (fun e -> finish p (Failed e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let resumed = ref false in
                  register (fun () ->
                      if !resumed then
                        failwith "Proc: resume thunk called twice";
                      resumed := true;
                      Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  Sim.schedule_drop ~label:"proc.spawn" sim ~delay:0 (fun () ->
      Effect.Deep.match_with body () handler);
  p

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_process

let sleep sim ~time =
  suspend (fun resume ->
      Sim.schedule_drop ~label:"proc.sleep" sim ~delay:time resume)

let yield sim = sleep sim ~time:0

let join p =
  (match p.pstate with
  | Running -> suspend (fun resume -> p.waiters <- resume :: p.waiters)
  | Done | Failed _ -> ());
  match p.pstate with
  | Done -> ()
  | Failed e -> raise e
  | Running -> assert false

let join_all ps = List.iter join ps

let run_to_completion sim main =
  let result = ref None in
  let p = spawn ~name:"main" sim (fun () -> result := Some (main ())) in
  Sim.run sim;
  match (p.pstate, !result) with
  | Done, Some v -> v
  | Done, None -> assert false
  | Failed e, _ -> raise e
  | Running, _ ->
      failwith "Proc.run_to_completion: deadlock (simulation idle, process blocked)"
