(* Snapshot comparison logic behind bin/benchdiff, as a library so the
   gating rules are testable.

   Two tolerance regimes coexist:

   - the legacy global tolerance, applied symmetrically to curve points,
     checks and the zero-copy counters — right for virtual-time
     measurements, which are deterministic, where any drift in either
     direction is a behavior change;

   - per-metric gates, declared in the *baseline* snapshot under a
     top-level "gates" object and applied to same-named top-level
     numeric members — for members where only movement in one
     direction is a regression, or that need their own tolerance. A
     gate names its tolerance and a direction: "lower_is_better"
     (events/PDU, allocs/event — flag only increases),
     "higher_is_better" (bandwidth, heavy-hitter recall — flag only
     decreases), or "both".

   The baseline's gates win over the legacy counter rule for the metric
   they name, and an improvement beyond any directional gate's tolerance
   passes silently, so a gain never fails CI. *)

type direction = Lower_is_better | Higher_is_better | Both

type gate = { g_tolerance : float; g_direction : direction }

let direction_name = function
  | Lower_is_better -> "lower_is_better"
  | Higher_is_better -> "higher_is_better"
  | Both -> "both"

let direction_of_name = function
  | "lower_is_better" -> Some Lower_is_better
  | "higher_is_better" -> Some Higher_is_better
  | "both" -> Some Both
  | _ -> None

let gate_json g =
  Json.Obj
    [
      ("tolerance", Json.Num g.g_tolerance);
      ("direction", Json.Str (direction_name g.g_direction));
    ]

let gates_json gs = Json.Obj (List.map (fun (k, g) -> (k, gate_json g)) gs)

let gates_of_json j =
  match Json.member "gates" j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (metric, v) ->
          let tol = Option.bind (Json.member "tolerance" v) Json.to_float in
          let dir =
            match Json.member "direction" v with
            | Some (Json.Str s) -> direction_of_name s
            | _ -> None
          in
          match (tol, dir) with
          | Some g_tolerance, Some g_direction ->
              Some (metric, { g_tolerance; g_direction })
          | _ -> None)
        kvs
  | _ -> []

(* Signed relative drift, positive when the current value exceeds the
   baseline. *)
let signed_delta old_v new_v =
  if old_v = new_v then 0.
  else (new_v -. old_v) /. Float.max (Float.abs old_v) 1e-9

let rel_delta old_v new_v = Float.abs (signed_delta old_v new_v)

(* Does (baseline -> current) violate the gate? Only movement in the
   gate's bad direction beyond its tolerance counts. *)
let violates g ~baseline ~current =
  let d = signed_delta baseline current in
  match g.g_direction with
  | Both -> Float.abs d > g.g_tolerance
  | Lower_is_better -> d > g.g_tolerance
  | Higher_is_better -> -.d > g.g_tolerance

(* --- snapshot accessors ----------------------------------------------- *)

let series j =
  match Json.member "series" j with
  | Some (Json.Obj kvs) ->
      List.map
        (fun (label, v) ->
          let pts =
            match v with
            | Json.List l ->
                List.filter_map
                  (function
                    | Json.List [ a; b ] -> (
                        match (Json.to_float a, Json.to_float b) with
                        | Some x, Some y -> Some (x, y)
                        | _ -> None)
                    | _ -> None)
                  l
            | _ -> []
          in
          (label, pts))
        kvs
  | _ -> []

let checks j =
  match Json.member "checks" j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (what, v) ->
          match v with Json.Bool b -> Some (what, b) | _ -> None)
        kvs
  | _ -> []

let numeric name j = Option.bind (Json.member name j) Json.to_float

(* every top-level numeric member is a metric worth showing side by side *)
let numeric_members j =
  match j with
  | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) -> match v with Json.Num n -> Some (k, n) | _ -> None)
        kvs
  | _ -> []

(* --- the diff ---------------------------------------------------------- *)

let diff ~tolerance old_j new_j =
  let flagged = ref [] in
  let flag fmt = Format.kasprintf (fun s -> flagged := s :: !flagged) fmt in
  (* checks that went PASS -> FAIL are regressions outright *)
  let new_checks = checks new_j in
  List.iter
    (fun (what, old_ok) ->
      match List.assoc_opt what new_checks with
      | Some new_ok when old_ok && not new_ok ->
          flag "REGRESSION check now fails: %s" what
      | None when old_ok -> flag "MISSING check disappeared: %s" what
      | _ -> ())
    (checks old_j);
  (* curve points, matched by label and x value *)
  let new_series = series new_j in
  List.iter
    (fun (label, old_pts) ->
      match List.assoc_opt label new_series with
      | None -> flag "MISSING series disappeared: %s" label
      | Some new_pts ->
          List.iter
            (fun (x, old_y) ->
              match List.find_opt (fun (x', _) -> x' = x) new_pts with
              | None -> flag "MISSING point %s at x=%g" label x
              | Some (_, new_y) ->
                  if rel_delta old_y new_y > tolerance then
                    flag "DRIFT %s at x=%g: %g -> %g (%+.1f%%)" label x old_y
                      new_y
                      (signed_delta old_y new_y *. 100.))
            old_pts)
    (series old_j);
  (* per-metric gates declared by the baseline (direction-aware) *)
  let gates = gates_of_json old_j in
  List.iter
    (fun (metric, g) ->
      match (numeric metric old_j, numeric metric new_j) with
      | Some o, Some n ->
          if violates g ~baseline:o ~current:n then
            flag "REGRESSION %s: %g -> %g (%+.1f%%, %s beyond %.0f%%)" metric
              o n
              (signed_delta o n *. 100.)
              (direction_name g.g_direction)
              (g.g_tolerance *. 100.)
      | Some _, None -> flag "MISSING gated metric disappeared: %s" metric
      | None, _ -> ())
    gates;
  (* the zero-copy layer's totals (unless a gate overrides them) *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name gates) then
        match (numeric name old_j, numeric name new_j) with
        | Some o, Some n when rel_delta o n > tolerance ->
            flag "DRIFT %s: %.0f -> %.0f" name o n
        | _ -> ())
    [ "buf_copies_total"; "buf_copy_bytes_total" ];
  List.rev !flagged

(* metric table rows: (name, baseline, current) for every top-level
   numeric member of either snapshot *)
let metric_rows old_j new_j =
  let olds = numeric_members old_j in
  let news = numeric_members new_j in
  let keys =
    List.map fst olds
    @ List.filter (fun k -> not (List.mem_assoc k olds)) (List.map fst news)
  in
  List.map
    (fun k -> (k, List.assoc_opt k olds, List.assoc_opt k news))
    keys
