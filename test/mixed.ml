(* Traffic that takes both i960 transmit paths in one run, for the
   train = per-cell differentials. Single-cell PDUs (40 B fit one cell
   beside the AAL5 trailer) always take the per-cell path; 1 KB round
   trips and pipelined 5056 B PDUs ride cell trains unless the run is
   forced per-cell. *)

open Engine

(* Run the mix with the fast path on ([forced = false]) or forced off,
   restoring the default afterwards; returns the events fired. *)
let traffic ?topology ?pair ~forced () =
  Trainmode.force_per_cell forced;
  Fun.protect ~finally:(fun () -> Trainmode.force_per_cell false)
  @@ fun () ->
  let fired0 = Sim.events_fired () in
  List.iter
    (fun size ->
      ignore
        (Experiments.Common.raw_rtt ~iters:20 ?topology ?pair ~size ()
          : float))
    [ 40; 1024 ];
  ignore
    (Experiments.Common.raw_bandwidth ~count:30 ?topology ?pair ~size:5056 ()
      : float);
  Sim.events_fired () - fired0
