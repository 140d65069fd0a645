(* benchdiff: compare two BENCH_<figure>.json snapshots (written by
   bench/main.exe) and flag values that moved beyond tolerance.

   Virtual-time members (curves, checks, copy counters) are
   deterministic for a given simulator, so they get one symmetric
   --tolerance: any drift is a behavior change, not noise. Members an
   experiment declares with a gate (events/PDU, allocated words/event,
   the fabric's latencies) are checked by the baseline snapshot's
   "gates" object instead, with per-member, direction-aware
   tolerances — only movement in the bad direction fails (see
   Engine.Benchgate).

   Exit codes: 0 agreement, 1 flagged regression/drift, 2 unreadable
   snapshot, 3 missing baseline (so CI can say "seed one" distinctly). *)

open Cmdliner

let print_metric_table old_j new_j =
  let rows = Engine.Benchgate.metric_rows old_j new_j in
  if rows <> [] then begin
    Format.printf "  %-34s %14s %14s %9s@." "metric" "baseline" "current"
      "delta";
    List.iter
      (fun (k, o, n) ->
        let num = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
        let delta =
          match (o, n) with
          | Some o, Some n ->
              Printf.sprintf "%+.1f%%" (Engine.Benchgate.signed_delta o n *. 100.)
          | _ -> "-"
        in
        Format.printf "  %-34s %14s %14s %9s@." k (num o) (num n) delta)
      rows
  end

let run old_path new_path tolerance =
  if not (Sys.file_exists old_path) then begin
    (* its own exit code so CI can distinguish "no baseline recorded yet"
       (seed it) from a real regression or a broken snapshot *)
    Format.eprintf
      "benchdiff: baseline %s does not exist (record one with bench/main.exe)@."
      old_path;
    3
  end
  else
    try
      let old_j = Engine.Json.of_file old_path in
      let new_j = Engine.Json.of_file new_path in
      print_metric_table old_j new_j;
      let flagged = Engine.Benchgate.diff ~tolerance old_j new_j in
      List.iter (fun msg -> Format.printf "  %s@." msg) flagged;
      if flagged = [] then begin
        Format.printf "ok: %s and %s agree within %.0f%% (plus %d gate(s))@."
          old_path new_path (tolerance *. 100.)
          (List.length (Engine.Benchgate.gates_of_json old_j));
        0
      end
      else begin
        Format.printf "%d value(s) beyond tolerance (%s -> %s)@."
          (List.length flagged) old_path new_path;
        1
      end
    with
    | Sys_error msg ->
        Format.eprintf "benchdiff: %s@." msg;
        2
    | Engine.Json.Parse_error msg ->
        Format.eprintf "benchdiff: parse error: %s@." msg;
        2

(* plain strings, not Arg.file: a missing baseline must reach [run] so it
   can exit 3 rather than cmdliner's generic 124 *)
let old_path =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASELINE" ~doc:"The baseline BENCH_*.json snapshot.")

let new_path =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CURRENT" ~doc:"The snapshot to compare against it.")

let tolerance =
  Arg.(
    value & opt float 0.1
    & info [ "tolerance" ] ~docv:"FRACTION"
        ~doc:
          "Relative drift allowed per value before it is flagged (0.1 = \
           10%). Metrics named by the baseline's per-metric \
           direction-aware gates use their own tolerances instead.")

let cmd =
  let doc = "diff two bench snapshots and flag regressions" in
  Cmd.v
    (Cmd.info "benchdiff" ~doc)
    Term.(const run $ old_path $ new_path $ tolerance)

let () = Stdlib.exit (Cmd.eval' cmd)
