(* The benchmark at a tiny size: every declared metric is printed with its
   unit, runs repeat exactly for a seed, another seed changes the inputs
   and still passes the oracle, and a total-loss fault is reported as
   failure rather than raised. *)

open Unetbench_core
open Engine

let tiny (w : Workload.t) =
  let msgs =
    match w.name with
    | "raw_pingpong" -> 400
    | "raw_stream" -> 200
    | "fabric_shuffle" -> 40
    | "uam_lossy" -> 30
    | _ -> 100
  in
  {
    Workload.msgs;
    clos = { Atm.Network.pods = 4; spine = 2; hosts_per_pod = 8 };
  }

let run ?fault ?trace ~seed w =
  Harness.run ?fault ?trace ~seed ~params:(tiny w) ~trials:2 w

let field k j =
  match Json.member k j with Some v -> v | None -> Alcotest.failf "no %s" k

let num k j =
  match Json.to_float (field k j) with
  | Some f -> f
  | None -> Alcotest.failf "%s" k

let str k j =
  match Json.to_str (field k j) with Some s -> s | None -> Alcotest.failf "%s" k

let declared kind =
  match Json.member kind (Json.of_string Benchmark_data.text) with
  | Some (Json.List ms) -> List.map (fun m -> (str "name" m, str "unit" m)) ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s" kind

let check_summary (r : Harness.report) kind =
  let metrics = field "metrics" r.result in
  List.iter
    (fun (name, unit) ->
      let m = field name metrics in
      Alcotest.(check string) (name ^ " unit") unit (str "unit" m);
      ignore (num "value" m))
    (declared kind);
  Alcotest.(check bool) "attempted" true (num "attempted" r.result >= 1.)

(* values that must repeat exactly for a seed: simulated results and the
   layers' counts, not host time or allocation *)
let deterministic (r : Harness.report) =
  let layers =
    match field "layers" r.detail with Json.Obj kvs -> kvs | _ -> []
  in
  let counted name =
    List.exists
      (fun p -> String.starts_with ~prefix:p name)
      [ "sim."; "atm."; "ni."; "unet."; "uam."; "engine.events_per_msg";
        "engine.cancelled_share"; "engine.buf_copies"; "engine.buf_copy_bytes" ]
  in
  ( List.filter_map
      (fun (k, v) -> if counted k then Some (k, num "value" v) else None)
      layers,
    field "sim" r.detail )

let per_workload (w : Workload.t) =
  let path = Printf.sprintf "trace-%s.json" w.name in
  let a = lazy (run ~seed:1 w) in
  [
    Alcotest.test_case "metrics, repeatability, trace" `Quick (fun () ->
        let a = Lazy.force a and b = run ~seed:1 ~trace:path w in
        Alcotest.(check bool) "correct" true (a.errors = [] && b.errors = []);
        check_summary a "end_to_end";
        check_summary b "per_layer";
        Alcotest.(check bool)
          "same seed, same counts and simulated results" true
          (deterministic a = deterministic b);
        let t = Json.of_file path in
        Sys.remove path;
        let events =
          match field "traceEvents" t with Json.List es -> es | _ -> []
        in
        let cat c =
          List.exists (fun e -> Json.member "cat" e = Some (Json.Str c)) events
        in
        Alcotest.(check bool)
          "set-up and message spans" true
          (cat "setup" && cat "msg");
        Alcotest.(check bool)
          "step histogram" true
          (field "engine.step" t <> Json.List []));
    Alcotest.test_case "another seed" `Quick (fun () ->
        let a = Lazy.force a and c = run ~seed:2 w in
        Alcotest.(check bool) "oracle passes" true (c.errors = []);
        Alcotest.(check bool)
          "inputs differ" true
          (field "sim" a.detail <> field "sim" c.detail));
  ]

let total_loss name =
  Alcotest.test_case ("total loss: " ^ name) `Quick (fun () ->
      let w = Option.get (Workload.find name) in
      let fault =
        { Fault.none with Fault.sites = [ Fault.Link_up ]; loss = 1.0 }
      in
      let r = run ~fault ~seed:1 w in
      Alcotest.(check bool) "incorrect" false (r.errors = []);
      Alcotest.(check (float 0.))
        "failed_share" 1.0
        (num "failed_share" r.detail);
      Alcotest.(check bool) "summary says so" false
        (field "correct" r.result = Json.Bool true))

let () =
  Alcotest.run "unetbench"
    (List.map (fun (w : Workload.t) -> (w.name, per_workload w)) Workload.all
    @ [ ("faults", [ total_loss "raw_pingpong"; total_loss "uam_store" ]) ])
