(* unetbench compare PARENT.jsonl CHANGE.jsonl

   The rule for claiming a gain in a small sandbox: run at least ten
   pairs of parent and change, alternating which side runs first, with
   the same benchmark code and settings, each run's detail line appended
   to its side's file. Pair i is the i-th run of a workload on each side.
   Per workload and end-to-end metric the verdict is

   - improved: the change wins at least 9 of 10 pairs (ties count for
     neither) and its median beats the parent's by more than the parent's
     own spread (the distance between its quartiles);
   - unresolved: fewer than 10 pairs, or the parent's spread is wider
     than the metric's bound and not every change run beats every parent
     run;
   - regressed: the change's median is worse than the parent's by more
     than the bound BENCHMARK.json fixes for the metric;
   - within bound: anything else.

   failed_share has bound 0: any increase is a regression. Exits 1 when
   any row regressed. *)

open Engine

type run = {
  workload : string;
  e2e : (string * float) list;
  failed : float;
  attempted : float;
}

let num k j = Option.bind (Json.member k j) Json.to_float

let runs file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.of_string line with
         | exception Json.Parse_error _ -> None
         | j -> (
             match (Json.member "workload" j, Json.member "e2e" j) with
             | Some (Json.Str workload), Some (Json.Obj ms) ->
                 Some
                   {
                     workload;
                     e2e =
                       List.filter_map
                         (fun (k, v) ->
                           Option.map (fun f -> (k, f)) (num "median" v))
                         ms;
                     failed = Option.value (num "failed" j) ~default:0.;
                     attempted = Option.value (num "attempted" j) ~default:0.;
                   }
             | _ -> None))

(* name, bound, lower-is-better, from the BENCHMARK.json this binary was
   built with *)
let bounds () =
  match Json.member "end_to_end" (Json.of_string Benchmark_data.text) with
  | Some (Json.List ms) ->
      List.filter_map
        (fun j ->
          match
            (Json.member "name" j, num "bound" j, Json.member "better" j)
          with
          | Some (Json.Str n), Some b, Some (Json.Str dir) ->
              Some (n, b, dir = "lower")
          | _ -> None)
        ms
  | _ -> []

let verdict ~bound ~lower parent change =
  let better a b = if lower then a < b else a > b in
  let pairs = List.length parent in
  let wins =
    List.length (List.filter Fun.id (List.map2 better change parent))
  in
  let q1, mp, q3 = Harness.quartiles parent in
  let _, mc, _ = Harness.quartiles change in
  let gain = if lower then mp -. mc else mc -. mp in
  let scale = Float.abs mp in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  ( wins,
    if pairs < 10 then "unresolved (<10 pairs)"
    else if wins * 10 >= pairs * 9 && gain > q3 -. q1 then "improved"
    else if q3 -. q1 > bound *. scale && not all_better then "unresolved"
    else if -.gain > bound *. scale then "regressed"
    else "within bound" )

let main ~parent ~change =
  let parent = runs parent and change = runs change in
  let regressed = ref false in
  Printf.printf "%-15s %-20s %14s %14s %7s  %s\n" "workload" "metric" "parent"
    "change" "wins" "verdict";
  List.iter
    (fun (w : Workload.t) ->
      let side rs = List.filter (fun r -> r.workload = w.name) rs in
      let p = side parent and c = side change in
      let n = min (List.length p) (List.length c) in
      if n > 0 then begin
        let p = List.filteri (fun i _ -> i < n) p
        and c = List.filteri (fun i _ -> i < n) c in
        let row metric mp mc wins v =
          if v = "regressed" then regressed := true;
          Printf.printf "%-15s %-20s %14.6g %14.6g %7s  %s\n" w.name metric mp
            mc wins v
        in
        List.iter
          (fun (name, bound, lower) ->
            let get rs = List.map (fun r -> List.assoc name r.e2e) rs in
            match (get p, get c) with
            | exception Not_found -> row name nan nan "-" "missing"
            | pv, cv ->
                let wins, v = verdict ~bound ~lower pv cv in
                row name (Harness.median pv) (Harness.median cv)
                  (Printf.sprintf "%d/%d" wins n)
                  v)
          (bounds ());
        let share rs =
          let f = List.fold_left (fun a r -> a +. r.failed) 0. rs in
          let a = List.fold_left (fun a r -> a +. r.attempted) 0. rs in
          if a = 0. then 0. else f /. a
        in
        let sp = share p and sc = share c in
        row "failed_share" sp sc "-"
          (if sc > sp then "regressed"
           else if sc < sp then "improved"
           else "within bound")
      end)
    Workload.all;
  if !regressed then 1 else 0
