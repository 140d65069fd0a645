open Engine

type t = {
  sim : Sim.t;
  machine : Machine.t;
  host : int;
  mutable busy : Sim.time;
}

let create ?(host = 0) sim machine = { sim; machine; host; busy = 0 }
let machine t = t.machine
let sim t = t.sim
let host t = t.host
let busy_time t = t.busy

(* Per-layer busy-time accounting: the machine-readable version of the
   paper's Table 1 cost breakdown. Counters are cached per layer label.
   Layer labels are string literals, so a charge finds its counter by
   physical equality in [resolved] without hashing the label or boxing an
   option; a label built at run time is looked up by value, and only the
   first few such strings join [resolved]. *)
let layer_counters : (string, Metrics.Counter.t) Hashtbl.t = Hashtbl.create 16
let resolved : (string * Metrics.Counter.t) list ref = ref []

let rec find_resolved layer = function
  | [] -> raise Not_found
  | (l, c) :: rest -> if l == layer then c else find_resolved layer rest

let layer_counter layer =
  match find_resolved layer !resolved with
  | c -> c
  | exception Not_found ->
      let c =
        match Hashtbl.find_opt layer_counters layer with
        | Some c -> c
        | None ->
            let c =
              Metrics.counter ~help:"virtual ns of CPU time charged, by layer"
                "host_cpu_busy_ns_total"
                [ ("layer", layer) ]
            in
            Hashtbl.add layer_counters layer c;
            c
      in
      if List.length !resolved < 32 then resolved := (layer, c) :: !resolved;
      c

let charge_raw ?(layer = "other") t ns =
  if ns < 0 then invalid_arg "Cpu.charge: negative cost";
  t.busy <- t.busy + ns;
  if ns > 0 then begin
    Metrics.Counter.add (layer_counter layer) ns;
    if Trace.enabled () then Trace.complete Trace.Cpu layer ~dur:ns;
    (* attribute at the charge site, before the sleep, so time spent by
       other processes while this one sleeps stays out of this frame *)
    if Profile.(enabled Virtual) then
      Profile.charge ~host:t.host ~frames:[ layer ] ns
  end;
  Proc.sleep t.sim ~time:ns

let charge ?layer t ns = charge_raw ?layer t (Machine.scale t.machine ns)
let charge_us ?layer t us = charge ?layer t (Sim.of_us_f us)

let charge_cycles ?layer t cycles =
  charge_raw ?layer t
    (int_of_float (Float.round (float_of_int cycles *. 1_000. /. t.machine.Machine.cpu_mhz)))

let copy_cost t ~bytes =
  int_of_float
    (Float.round (float_of_int bytes *. t.machine.Machine.memcpy_ns_per_byte))

let charge_copy ?(layer = "copy") t ~bytes = charge_raw ~layer t (copy_cost t ~bytes)
