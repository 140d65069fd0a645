(* A single-file HTML report for a run.

   Everything is generated server-side into one file: inline CSS, inline
   SVG sparklines, and a flamegraph rendered as absolutely-positioned
   <div>s — no scripts, no fonts, no fetches, so the file opens identically
   from disk, an artifact store, or an air-gapped machine. Section builders
   pull from the telemetry registries (Span attribution, Timeseries
   series, Profile stacks, the Metrics registry) and return HTML
   fragments; [page] wraps an ordered list of fragments into the document. *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let style =
  {css|
body { font: 14px/1.5 system-ui, sans-serif; color: #1a1a2e; margin: 2em auto; max-width: 72em; padding: 0 1em; }
h1 { font-size: 1.5em; border-bottom: 2px solid #1a1a2e; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: .5em 0; }
th, td { border: 1px solid #ccc; padding: .25em .6em; text-align: left; }
th { background: #f0f0f5; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.pass { color: #0a7a2f; font-weight: 600; }
.fail { color: #b00020; font-weight: 600; }
.spark { vertical-align: middle; }
.spark polyline { fill: none; stroke: #2456a4; stroke-width: 1.5; }
.fg { position: relative; background: #fafafa; border: 1px solid #ddd; margin: .5em 0 1.5em 0; }
.fg div { position: absolute; height: 17px; overflow: hidden; white-space: nowrap; font-size: 11px; line-height: 17px; padding-left: 3px; box-sizing: border-box; border: 1px solid rgba(255,255,255,.7); }
.muted { color: #666; font-size: .85em; }
|css}

let section ~title body =
  Printf.sprintf "<h2>%s</h2>\n%s" (escape title) body

let page ~title sections =
  Printf.sprintf
    "<!DOCTYPE html>\n\
     <html lang=\"en\"><head><meta charset=\"utf-8\">\n\
     <title>%s</title>\n\
     <style>%s</style>\n\
     </head><body>\n\
     <h1>%s</h1>\n\
     %s\n\
     </body></html>\n"
    (escape title) style (escape title)
    (String.concat "\n" sections)

let write ~path ~title sections =
  let oc = open_out path in
  output_string oc (page ~title sections);
  close_out oc

(* --- small pieces ----------------------------------------------------- *)

let fmt_ns ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%.3f s" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Printf.sprintf "%.3f ms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.2f &micro;s" (float_of_int ns /. 1e3)
  else Printf.sprintf "%d ns" ns

let fmt_g v = Printf.sprintf "%.6g" v

let sparkline ?(w = 220) ?(h = 36) pts =
  match pts with
  | [] | [ _ ] -> "<span class=\"muted\">(no points)</span>"
  | pts ->
      let xs = List.map fst pts and ys = List.map snd pts in
      let xmin = List.fold_left min (List.hd xs) xs
      and xmax = List.fold_left max (List.hd xs) xs
      and ymin = List.fold_left min (List.hd ys) ys
      and ymax = List.fold_left max (List.hd ys) ys in
      let xr = if xmax > xmin then xmax -. xmin else 1.
      and yr = if ymax > ymin then ymax -. ymin else 1. in
      let fw = float_of_int (w - 2) and fh = float_of_int (h - 2) in
      let coord (x, y) =
        Printf.sprintf "%.1f,%.1f"
          (1. +. ((x -. xmin) /. xr *. fw))
          (1. +. fh
          -. ((y -. ymin) /. yr *. fh))
      in
      Printf.sprintf
        "<svg class=\"spark\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d \
         %d\"><polyline points=\"%s\"/></svg>"
        w h w h
        (String.concat " " (List.map coord pts))

(* keep sparklines light: at most [target] points, evenly strided *)
let downsample target pts =
  let n = List.length pts in
  if n <= target then pts
  else
    let stride = (n + target - 1) / target in
    List.filteri (fun i _ -> i mod stride = 0 || i = n - 1) pts

let checks_table checks =
  if checks = [] then "<p class=\"muted\">no checks declared</p>"
  else
    Printf.sprintf "<table><tr><th>check</th><th>result</th></tr>%s</table>"
      (String.concat ""
         (List.map
            (fun (what, ok) ->
              Printf.sprintf
                "<tr><td>%s</td><td class=\"%s\">%s</td></tr>" (escape what)
                (if ok then "pass" else "fail")
                (if ok then "PASS" else "FAIL"))
            checks))

let curves_html curves =
  String.concat ""
    (List.map
       (fun (label, pts) ->
         let ys = List.map snd pts in
         let stats =
           match ys with
           | [] -> ""
           | y0 :: _ ->
               let lo = List.fold_left min y0 ys
               and hi = List.fold_left max y0 ys in
               Printf.sprintf
                 "<span class=\"muted\">%d pts, min %s, max %s</span>"
                 (List.length pts) (fmt_g lo) (fmt_g hi)
         in
         Printf.sprintf "<p><b>%s</b><br>%s %s</p>" (escape label)
           (sparkline (downsample 240 pts))
           stats)
       curves)

(* --- sections from the telemetry registries --------------------------- *)

let breakdown_section () =
  match Span.attribution () with
  | [] ->
      section ~title:"Latency breakdown"
        "<p class=\"muted\">no spans collected</p>"
  | aggs ->
      let total =
        List.fold_left (fun acc (a : Span.agg) -> acc + a.total_ns) 0 aggs
      in
      let rows =
        List.map
          (fun (a : Span.agg) ->
            Printf.sprintf
              "<tr><td>%s</td><td class=\"num\">%d</td><td \
               class=\"num\">%s</td><td class=\"num\">%s</td><td \
               class=\"num\">%.1f%%</td></tr>"
              (escape a.phase) a.p_count (fmt_ns a.total_ns)
              (fmt_ns
                 (if a.p_count = 0 then 0 else a.total_ns / a.p_count))
              (if total = 0 then 0.
               else 100. *. float_of_int a.total_ns /. float_of_int total))
          aggs
      in
      section ~title:"Latency breakdown (measured Table 2)"
        (Printf.sprintf
           "<table><tr><th>phase</th><th>count</th><th>total</th><th>mean</th><th>share</th></tr>%s</table>"
           (String.concat "" rows))

let labels_str labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

let timeseries_section () =
  let all = Timeseries.series () in
  let shown = List.filteri (fun i _ -> i < 120) all in
  let body =
    if all = [] then "<p class=\"muted\">no probes sampled</p>"
    else
      String.concat ""
        (List.map
           (fun (s : Timeseries.series) ->
             let pts =
               List.map
                 (fun (t, v) -> (float_of_int t /. 1e6, v))
                 s.s_points
             in
             let last =
               match List.rev s.s_points with
               | (_, v) :: _ -> fmt_g v
               | [] -> "-"
             in
             Printf.sprintf
               "<p><b>%s</b> <span class=\"muted\">%s · %d samples · last \
                %s</span><br>%s</p>"
               (escape (s.s_name ^ labels_str s.s_labels))
               (match s.s_kind with
               | Timeseries.Gauge -> "gauge"
               | Timeseries.Rate -> "rate/s"
               | Timeseries.Utilization -> "utilization")
               (List.length s.s_points)
               last
               (sparkline (downsample 240 pts)))
           shown)
  in
  let note =
    if List.length all > 120 then
      Printf.sprintf "<p class=\"muted\">showing 120 of %d series</p>"
        (List.length all)
    else ""
  in
  section ~title:"Timeseries" (body ^ note)

(* flamegraph as nested positioned divs (an "icicle": root on top) *)
type fnode = {
  f_name : string;
  mutable f_self : int;
  mutable f_children : (string * fnode) list; (* reversed insertion order *)
}

(* shared by the virtual-time and wall-time flamegraphs: rebuild the
   tree from folded stacks and emit the divs; [fmt] renders a value for
   the hover title *)
let flamegraph_html ~fmt stacks =
  let roots : (string * fnode) list ref = ref [] in
  let node lst name =
    match List.assoc_opt name !lst with
    | Some n -> n
    | None ->
        let n = { f_name = name; f_self = 0; f_children = [] } in
        lst := (name, n) :: !lst;
        n
  in
  List.iter
    (fun (path, self) ->
      match path with
      | [] -> ()
      | root :: rest ->
          let r = node roots root in
          let n =
            List.fold_left
              (fun parent name ->
                let holder = ref parent.f_children in
                let c = node holder name in
                parent.f_children <- !holder;
                c)
              r rest
          in
          n.f_self <- n.f_self + self)
    stacks;
  let rec inclusive n =
    List.fold_left
      (fun acc (_, c) -> acc + inclusive c)
      n.f_self n.f_children
  in
  let color name =
    let h = Hashtbl.hash name mod 360 in
    Printf.sprintf "hsl(%d,65%%,72%%)" h
  in
  let buf = Buffer.create 4096 in
  let rec depth_of n =
    List.fold_left (fun acc (_, c) -> max acc (1 + depth_of c)) 1 n.f_children
  in
  List.iter
    (fun (_, root) ->
      let total = inclusive root in
      if total > 0 then begin
        let rows = depth_of root in
        Buffer.add_string buf
          (Printf.sprintf "<div class=\"fg\" style=\"height:%dpx\">"
             ((rows * 18) + 2));
        let rec emit n left depth =
          let incl = inclusive n in
          let width = 100. *. float_of_int incl /. float_of_int total in
          if width >= 0.05 then begin
            Buffer.add_string buf
              (Printf.sprintf
                 "<div style=\"left:%.3f%%;top:%dpx;width:%.3f%%;background:%s\" \
                  title=\"%s: %s (%.2f%%)\">%s</div>"
                 left (depth * 18) width (color n.f_name)
                 (escape n.f_name) (fmt incl)
                 (100. *. float_of_int incl /. float_of_int total)
                 (if width > 4. then escape n.f_name else ""));
            let off = ref left in
            List.iter
              (fun (_, c) ->
                emit c !off (depth + 1);
                off :=
                  !off
                  +. 100.
                     *. float_of_int (inclusive c)
                     /. float_of_int total)
              (List.rev n.f_children)
          end
        in
        emit root 0. 0;
        Buffer.add_string buf "</div>"
      end)
    (List.rev !roots);
  Buffer.contents buf

let profile_section () =
  let stacks = Profile.(stacks Virtual) in
  if stacks = [] then
    section ~title:"Profile" "<p class=\"muted\">profiler not enabled</p>"
  else
    section ~title:"Profile (virtual-time flamegraph)"
      (flamegraph_html ~fmt:fmt_ns stacks
      ^ Printf.sprintf
          "<p class=\"muted\">elapsed virtual time %s; root-exclusive time \
           is idle/unattributed. Wider is longer; hover for exact \
           times.</p>"
          (fmt_ns Profile.(elapsed Virtual)))

(* wall-clock self-observability: the wall-time twin of the virtual
   flamegraph, the event-queue depth over time, and the queue's
   lifecycle/pop-cost story *)
let engine_section () =
  if Profile.(elapsed Wall) = 0 then
    section ~title:"Engine"
      "<p class=\"muted\">self-profiler not enabled (run with \
       --selfprof)</p>"
  else begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (flamegraph_html ~fmt:fmt_ns Profile.(stacks Wall));
    Buffer.add_string buf
      (Printf.sprintf
         "<p class=\"muted\">elapsed wall time %s; depth-1 frames are \
          event kinds (schedule-site labels), root-exclusive time is \
          event-loop overhead.</p>"
         (fmt_ns Profile.(elapsed Wall)));
    (* queue depth sparkline from the introspection probes *)
    List.iter
      (fun (s : Timeseries.series) ->
        if s.s_name = "sim_queue_depth" && s.s_points <> [] then begin
          let pts =
            List.map
              (fun (t, v) -> (float_of_int t, v))
              (downsample 240 s.s_points)
          in
          Buffer.add_string buf
            (Printf.sprintf "<p><b>event-queue depth</b><br>%s</p>"
               (sparkline pts))
        end)
      (Timeseries.series ());
    let fired = Sim.events_fired () and cancelled = Sim.events_cancelled () in
    Buffer.add_string buf
      (Printf.sprintf
         "<table><tr><th>events fired</th><th>events \
          cancelled</th><th>tombstone ratio</th><th>mean pop cost (heap \
          ops)</th><th>mean same-timestamp batch</th></tr>\
          <tr><td class=\"num\">%d</td><td class=\"num\">%d</td>\
          <td class=\"num\">%.1f%%</td><td class=\"num\">%.2f</td>\
          <td class=\"num\">%.2f</td></tr></table>"
         fired cancelled
         (Sim.tombstone_ratio () *. 100.)
         (Profile.pop_cost_mean ())
         (Profile.batch_size_mean ()));
    section ~title:"Engine (wall-clock self-profile)" (Buffer.contents buf)
  end

let sketch_section () =
  let s = Span.latency () in
  let n = Metrics.Sketch.count s in
  if n = 0 then
    section ~title:"Message latency"
      "<p class=\"muted\">no message deliveries observed</p>"
  else
    let q p = fmt_ns (int_of_float (Metrics.Sketch.quantile s p)) in
    section ~title:"Message latency (mint to rx ring)"
      (Printf.sprintf
         "<table><tr><th>deliveries</th><th>p50</th><th>p99</th>\
          <th>p99.9</th><th>max</th><th>mean</th></tr>\
          <tr><td class=\"num\">%d</td><td class=\"num\">%s</td>\
          <td class=\"num\">%s</td><td class=\"num\">%s</td>\
          <td class=\"num\">%s</td><td class=\"num\">%s</td></tr></table>\
          <p class=\"muted\">log-bucketed quantile sketch, every quantile \
          within %.0f%% relative error at O(buckets) memory.</p>"
         n (q 0.5) (q 0.99) (q 0.999)
         (fmt_ns (int_of_float (Metrics.Sketch.max s)))
         (fmt_ns (int_of_float (Metrics.Sketch.total s /. float_of_int n)))
         (Metrics.Sketch.alpha *. 100.))

let metrics_section () =
  let json = Json.of_string (Metrics.to_json_string ()) in
  let fams =
    match Json.member "families" json with
    | Some (Json.List l) -> l
    | _ -> []
  in
  let rows = Buffer.create 4096 in
  List.iter
    (fun fam ->
      let name =
        match Json.member "name" fam with Some (Json.Str s) -> s | _ -> "?"
      in
      let kind =
        match Json.member "kind" fam with Some (Json.Str s) -> s | _ -> ""
      in
      let samples =
        match Json.member "samples" fam with
        | Some (Json.List l) -> l
        | _ -> []
      in
      List.iter
        (fun s ->
          let labels =
            match Json.member "labels" s with
            | Some (Json.Obj kv) ->
                labels_str
                  (List.map
                     (fun (k, v) ->
                       (k, match v with Json.Str s -> s | _ -> ""))
                     kv)
            | _ -> ""
          in
          let value =
            match Json.member "value" s with
            | Some (Json.Num v) -> fmt_g v
            | _ -> (
                match
                  (Json.member "count" s, Json.member "mean" s)
                with
                | Some (Json.Num n), Some (Json.Num m) ->
                    Printf.sprintf "n=%.0f mean=%s" n (fmt_g m)
                | Some (Json.Num n), None -> Printf.sprintf "n=%.0f" n
                | _ -> "-")
          in
          Buffer.add_string rows
            (Printf.sprintf
               "<tr><td>%s%s</td><td>%s</td><td class=\"num\">%s</td></tr>"
               (escape name) (escape labels) (escape kind) value))
        samples)
    fams;
  section ~title:"Metrics"
    (Printf.sprintf
       "<table><tr><th>metric</th><th>kind</th><th>value</th></tr>%s</table>"
       (Buffer.contents rows))
