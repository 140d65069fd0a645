(* Reproduction tests: every table and figure of the paper's evaluation is
   re-run (at reduced iteration counts) and its qualitative claims are
   asserted — orderings, crossovers, saturation points, and values within
   tolerance bands of the paper's numbers. *)

let experiment_case (e : Experiments.Registry.experiment) =
  Alcotest.test_case e.name `Slow (fun () ->
      let results = (e.run ~quick:true).Experiments.Registry.o_checks in
      Alcotest.(check bool)
        (Fmt.str "%s: %a" e.name
           Fmt.(list ~sep:comma (pair ~sep:(any "=") string bool))
           results)
        true
        (List.for_all snd results))

(* The TCP bulk driver writes exactly its payload: a length that is not a
   whole number of 8 KB sends ends with a short one, and the sink reads
   every byte, intact and no more. *)
let test_tcp_flow_exact () =
  let open Experiments.Common in
  let total = (3 * 8192) + 1000 in
  let bed = tcp_bed Unet_path in
  let data = Bytes.init total (fun i -> Char.chr (i * 7 land 0xff)) in
  let f = tcp_flow bed data in
  Engine.Sim.run ~until:(Engine.Sim.sec 10) bed.sim;
  Alcotest.(check int) "bytes delivered" total f.received;
  Alcotest.(check bool) "payload intact" true f.intact;
  Alcotest.(check bool) "sink saw end of stream" true (f.finished_at > 0)

let () =
  Alcotest.run "experiments"
    [
      ( "paper-claims",
        List.map experiment_case Experiments.Registry.all );
      ( "drivers",
        [
          Alcotest.test_case "tcp bulk flow delivers a partial last send"
            `Quick test_tcp_flow_exact;
        ] );
    ]
