(* unetbench: the end-to-end benchmark of the simulator's own cost.

     unetbench [--workload W] [--seed S] [--seconds N] [--trace 0|1|FILE]
     unetbench compare PARENT.jsonl CHANGE.jsonl

   A run prints one detail line per workload (every metric with its
   median, quartiles and sample count) and, last, one summary line:
   {"correct", "attempted", "failed", "metrics"} -- the end-to-end
   metrics, or with --trace the per-layer ones. It exits 1 when any
   correctness check fails. --trace 1 writes the traced trial's spans to
   unetbench-trace-<workload>.json; any other non-0 value names the file.
   Without --workload every workload runs in turn, in one process, so
   peak_heap_mb is then the process's peak so far. *)

open Unetbench_core

let usage =
  "unetbench [--workload W] [--seed S] [--seconds N] [--trace 0|1|FILE]\n\
   unetbench compare PARENT.jsonl CHANGE.jsonl"

(* The last line. Several workloads fold into one object whose metric
   names carry the workload as a prefix. *)
let summary workloads reports =
  let open Engine.Json in
  match reports with
  | [ (r : Harness.report) ] -> r.result
  | _ ->
      let field k (r : Harness.report) = member k r.result in
      let total k =
        Num
          (List.fold_left
             (fun a r ->
               a +. Option.value ~default:0. (Option.bind (field k r) to_float))
             0. reports)
      in
      Obj
        [
          ( "correct",
            Bool
              (List.for_all (fun (r : Harness.report) -> r.errors = []) reports)
          );
          ("attempted", total "attempted");
          ("failed", total "failed");
          ( "metrics",
            Obj
              (List.concat
                 (List.map2
                    (fun (w : Workload.t) r ->
                      match field "metrics" r with
                      | Some (Obj ms) ->
                          List.map (fun (k, v) -> (w.name ^ "/" ^ k, v)) ms
                      | _ -> [])
                    workloads reports)) );
        ]

let bench args =
  let workload = ref None and seed = ref 1 and seconds = ref 0. in
  let trace = ref "0" in
  let spec =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "W one of: "
        ^ String.concat ", "
            (List.map (fun w -> w.Workload.name) Workload.all) );
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "N measure for at least N seconds");
      ("--trace", Arg.Set_string trace, "0|1|FILE add a traced trial");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) args spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let workloads =
    match !workload with
    | None -> Workload.all
    | Some name -> (
        match Workload.find name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "unknown workload %s\n%s\n" name usage;
            exit 2)
  in
  let reports =
    List.map
      (fun (w : Workload.t) ->
        let trace =
          match !trace with
          | "0" -> None
          | "1" -> Some (Printf.sprintf "unetbench-trace-%s.json" w.name)
          | file -> Some file
        in
        let r = Harness.run ~seed:!seed ~seconds:!seconds ?trace w in
        print_endline (Engine.Json.to_string r.detail);
        List.iter (fun e -> Printf.eprintf "%s: %s\n%!" w.name e) r.errors;
        r)
      workloads
  in
  print_endline (Engine.Json.to_string (summary workloads reports));
  exit (if List.for_all (fun r -> r.Harness.errors = []) reports then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: parent :: change :: [] ->
      exit (Compare.main ~parent ~change)
  | _ :: "compare" :: _ ->
      prerr_endline usage;
      exit 2
  | _ -> bench Sys.argv
