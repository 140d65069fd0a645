let log_src = Logs.Src.create "engine.proc" ~doc:"simulated processes"

module Log = (val Logs.src_log log_src : Logs.LOG)

type state = Running | Done | Failed of exn

type t = {
  pname : string;
  mutable pstate : state;
  mutable waiters : (unit -> unit) list;
  (* A sleep in progress. Its handler ([on_sleep]) and wake-up ([wake])
     are made once per process: the handler parks the continuation in
     [asleep] and schedules [wake] on [sleep_sim], [sleep_ns] later. *)
  mutable asleep : (unit, unit) Effect.Deep.continuation option;
  mutable sleep_sim : Sim.t;
  mutable sleep_ns : Sim.time;
  wake : unit -> unit;
  on_sleep : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

exception Not_in_process

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Sleep : Sim.t * Sim.time -> unit Effect.t

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

let wake p =
  match p.asleep with
  | Some k ->
      p.asleep <- None;
      Effect.Deep.continue k ()
  | None -> assert false

let on_sleep p k =
  p.asleep <- Some k;
  Sim.schedule_drop ~label:"proc.sleep" p.sleep_sim ~delay:p.sleep_ns p.wake

let spawn ?(name = "proc") sim body =
  let rec p =
    {
      pname = name;
      pstate = Running;
      waiters = [];
      asleep = None;
      sleep_sim = sim;
      sleep_ns = 0;
      wake = (fun () -> wake p);
      on_sleep = Some (fun k -> on_sleep p k);
    }
  in
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
          | Sleep (sim, time) ->
              (* no closure per sleep: the handler and the wake-up are the
                 process's own, and only its wake-up event holds [wake] *)
              if p.sleep_sim != sim then p.sleep_sim <- sim;
              p.sleep_ns <- time;
              p.on_sleep
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
  try Effect.perform (Sleep (sim, time))
  with Effect.Unhandled _ -> raise Not_in_process

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
