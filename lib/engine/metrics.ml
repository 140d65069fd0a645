(* A process-global registry of labelled counters, gauges and virtual-time
   histograms.

   Instruments are deduplicated by (family name, label set): registering the
   same pair twice returns the same instrument, so components re-created
   across sweep points keep accumulating into one sample. [reset] zeroes
   every value but keeps the registrations alive — handles held by
   long-lived modules stay valid, and declared families keep appearing in
   dumps even at zero. Both properties are what makes the dumps
   deterministic for a fixed seed: the set of families is fixed by what the
   run touched, and the values by the simulation itself. *)

type labels = (string * string) list

let canon (labels : labels) =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

type kind = Counter_k | Gauge_k | Histogram_k | Sketch_k

let kind_name = function
  | Counter_k -> "counter"
  | Gauge_k -> "gauge"
  | Histogram_k -> "summary"
  | Sketch_k -> "summary"

module Counter = struct
  type t = { mutable v : int }

  let inc t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
end

module Gauge = struct
  type t = { mutable g : float; mutable fn : (unit -> float) option }

  let set t v = t.g <- v
  let add t v = t.g <- t.g +. v
  let set_max t v = if v > t.g then t.g <- v
  let set_max_int t n = set_max t (float_of_int n)
  let value t = match t.fn with Some f -> f () | None -> t.g
end

module Histogram = struct
  type t = { mutable s : Stats.Summary.t }

  let observe t v = Stats.Summary.add t.s v
  let summary t = t.s
  let count t = Stats.Summary.count t.s
end

(* A DDSketch-style log-bucketed quantile sketch: bucket i holds values in
   (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so any
   reported quantile is within relative error [alpha] of the sample at
   that rank while memory stays O(occupied buckets) however many values
   are observed — unlike [Histogram], which retains every sample. *)
module Sketch = struct
  let alpha = 0.01
  let gamma = (1. +. alpha) /. (1. -. alpha)
  let log_gamma = Float.log gamma

  type t = {
    buckets : (int, int ref) Hashtbl.t;
    mutable zero : int; (* values <= 0 collapse into one bucket *)
    mutable n : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () =
    {
      buckets = Hashtbl.create 64;
      zero = 0;
      n = 0;
      sum = 0.;
      mn = infinity;
      mx = neg_infinity;
    }

  let clear t =
    Hashtbl.reset t.buckets;
    t.zero <- 0;
    t.n <- 0;
    t.sum <- 0.;
    t.mn <- infinity;
    t.mx <- neg_infinity

  let bucket_index v = int_of_float (Float.ceil (Float.log v /. log_gamma))

  let observe t v =
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v;
    if v <= 0. then t.zero <- t.zero + 1
    else
      let i = bucket_index v in
      match Hashtbl.find_opt t.buckets i with
      | Some r -> incr r
      | None -> Hashtbl.add t.buckets i (ref 1)

  let count t = t.n
  let total t = t.sum
  let max t = t.mx

  (* Nearest-rank quantile over the buckets in index order; the value
     reported for bucket i is the bucket midpoint 2*gamma^i/(gamma+1),
     within [alpha] of every value the bucket holds. *)
  let quantile t q =
    if t.n = 0 then invalid_arg "Sketch.quantile: empty";
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (q *. float_of_int (t.n - 1)) in
    if rank < t.zero then 0.
    else begin
      let ids =
        List.sort compare
          (Hashtbl.fold (fun i _ acc -> i :: acc) t.buckets [])
      in
      let acc = ref t.zero and out = ref t.mx in
      (try
         List.iter
           (fun i ->
             acc := !acc + !(Hashtbl.find t.buckets i);
             if !acc > rank then begin
               out := 2. *. (gamma ** float_of_int i) /. (gamma +. 1.);
               raise Exit
             end)
           ids
       with Exit -> ());
      !out
    end
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_hist of Histogram.t
  | I_sketch of Sketch.t

type family = {
  f_name : string;
  f_kind : kind;
  f_help : string;
  f_index : (labels, instrument) Hashtbl.t;
  mutable f_rev : (labels * instrument) list; (* newest first *)
}

(* Samples in insertion order, the order every dump lists them in. *)
let samples f = List.rev f.f_rev

let registry : (string, family) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref [] (* registration order, for stable dumps *)

let family ~kind ~help name =
  match Hashtbl.find_opt registry name with
  | Some f ->
      if f.f_kind <> kind then
        Fmt.invalid_arg "Metrics: %s already registered as a %s" name
          (kind_name f.f_kind);
      f
  | None ->
      let f =
        {
          f_name = name;
          f_kind = kind;
          f_help = help;
          f_index = Hashtbl.create 8;
          f_rev = [];
        }
      in
      Hashtbl.replace registry name f;
      order := name :: !order;
      f

let sample f labels mk =
  let labels = canon labels in
  match Hashtbl.find_opt f.f_index labels with
  | Some i -> i
  | None ->
      let i = mk () in
      Hashtbl.add f.f_index labels i;
      f.f_rev <- (labels, i) :: f.f_rev;
      i

let counter ?(help = "") name labels =
  let f = family ~kind:Counter_k ~help name in
  match sample f labels (fun () -> I_counter { Counter.v = 0 }) with
  | I_counter c -> c
  | _ -> assert false

let gauge ?(help = "") name labels =
  let f = family ~kind:Gauge_k ~help name in
  match sample f labels (fun () -> I_gauge { Gauge.g = 0.; fn = None }) with
  | I_gauge g -> g
  | _ -> assert false

(* Callback gauges are read at dump time; re-registration replaces the
   callback so a fresh component instance (same identity, new run) wins.
   Observers (the Timeseries bridge) see every registration too, so one
   gauge_fn call feeds both the dump-time gauge and the sampler. *)
let gauge_fn_observers :
    (string -> labels -> (unit -> float) -> unit) list ref =
  ref []

let on_gauge_fn obs =
  gauge_fn_observers := obs :: !gauge_fn_observers;
  (* replay registrations made before the observer arrived *)
  List.iter
    (fun f ->
      if f.f_kind = Gauge_k then
        List.iter
          (fun (labels, i) ->
            match i with
            | I_gauge { Gauge.fn = Some fn; _ } -> obs f.f_name labels fn
            | _ -> ())
          (samples f))
    (List.rev_map (Hashtbl.find registry) !order)

let gauge_fn ?help name labels f =
  let g = gauge ?help name labels in
  g.Gauge.fn <- Some f;
  List.iter (fun obs -> obs name (canon labels) f) !gauge_fn_observers

let histogram ?(help = "") name labels =
  let f = family ~kind:Histogram_k ~help name in
  match
    sample f labels (fun () -> I_hist { Histogram.s = Stats.Summary.create () })
  with
  | I_hist h -> h
  | _ -> assert false

let sketch ?(help = "") name labels =
  let f = family ~kind:Sketch_k ~help name in
  match sample f labels (fun () -> I_sketch (Sketch.create ())) with
  | I_sketch s -> s
  | _ -> assert false

(* Deferred-accounting flushes: layers that fold state into metrics lazily
   (e.g. a link folding an analytic cell-train schedule into its high-water
   gauge) register a flush so every read of the registry sees up-to-date
   values. Registrations are per-experiment: [reset] clears them along with
   the sample values, and the next experiment's components re-register. *)
let flushers : (unit -> unit) list ref = ref []
let register_flush f = flushers := f :: !flushers
let flush () = List.iter (fun f -> f ()) !flushers

let reset () =
  flushers := [];
  Hashtbl.iter
    (fun _ f ->
      List.iter
        (fun (_, i) ->
          match i with
          | I_counter c -> c.Counter.v <- 0
          | I_gauge g -> g.Gauge.g <- 0.
          | I_hist h -> h.Histogram.s <- Stats.Summary.create ()
          | I_sketch s -> Sketch.clear s)
        f.f_rev)
    registry

let counter_value name labels =
  flush ();
  match Hashtbl.find_opt registry name with
  | None -> None
  | Some f -> (
      match Hashtbl.find_opt f.f_index (canon labels) with
      | Some (I_counter c) -> Some (Counter.value c)
      | _ -> None)

let families_sorted () =
  List.sort
    (fun a b -> String.compare a.f_name b.f_name)
    (List.rev_map (Hashtbl.find registry) !order)

(* --- Prometheus text exposition ------------------------------------- *)

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let pp_labelset fmt = function
  | [] -> ()
  | labels ->
      Format.fprintf fmt "{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
              labels))

let pp_float fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf fmt "%.0f" v
  else Format.fprintf fmt "%.6g" v

let quantiles = [ 0.5; 0.9; 0.99 ]
let sketch_quantiles = [ 0.5; 0.99; 0.999 ]

let pp_prometheus fmt () =
  flush ();
  List.iter
    (fun f ->
      if f.f_help <> "" then
        Format.fprintf fmt "# HELP %s %s@\n" f.f_name f.f_help;
      Format.fprintf fmt "# TYPE %s %s@\n" f.f_name (kind_name f.f_kind);
      List.iter
        (fun (labels, i) ->
          match i with
          | I_counter c ->
              Format.fprintf fmt "%s%a %d@\n" f.f_name pp_labelset labels
                (Counter.value c)
          | I_gauge g ->
              Format.fprintf fmt "%s%a %a@\n" f.f_name pp_labelset labels
                pp_float (Gauge.value g)
          | I_hist h ->
              let s = Histogram.summary h in
              let n = Stats.Summary.count s in
              if n > 0 then
                List.iter
                  (fun q ->
                    Format.fprintf fmt "%s%a %a@\n" f.f_name pp_labelset
                      (canon
                         (("quantile", Printf.sprintf "%g" q) :: labels))
                      pp_float
                      (Stats.Summary.percentile s q))
                  quantiles;
              Format.fprintf fmt "%s_sum%a %a@\n" f.f_name pp_labelset labels
                pp_float
                (if n = 0 then 0. else Stats.Summary.total s);
              Format.fprintf fmt "%s_count%a %d@\n" f.f_name pp_labelset
                labels n
          | I_sketch s ->
              let n = Sketch.count s in
              if n > 0 then
                List.iter
                  (fun q ->
                    Format.fprintf fmt "%s%a %a@\n" f.f_name pp_labelset
                      (canon
                         (("quantile", Printf.sprintf "%g" q) :: labels))
                      pp_float (Sketch.quantile s q))
                  sketch_quantiles;
              Format.fprintf fmt "%s_sum%a %a@\n" f.f_name pp_labelset labels
                pp_float
                (if n = 0 then 0. else Sketch.total s);
              Format.fprintf fmt "%s_count%a %d@\n" f.f_name pp_labelset
                labels n)
        (samples f))
    (families_sorted ())

(* --- JSON dump ------------------------------------------------------- *)

(* JSON escaping is stricter than the Prometheus label rules: every
   control character must be encoded, not just newline. Label values
   carry flow identities ("src:dst:vci,vci,...") and other free-form
   strings, so the dump must stay parseable whatever bytes they hold. *)
let json_string v = Json.to_string (Json.Str v)

let pp_json fmt () =
  flush ();
  Format.fprintf fmt "{@\n  \"families\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Format.fprintf fmt ",";
      Format.fprintf fmt "@\n    {\"name\": %s, \"kind\": %s, \"help\": %s, \"samples\": ["
        (json_string f.f_name)
        (json_string (kind_name f.f_kind))
        (json_string f.f_help);
      List.iteri
        (fun j (labels, inst) ->
          if j > 0 then Format.fprintf fmt ",";
          Format.fprintf fmt "@\n      {\"labels\": {%s}, "
            (String.concat ", "
               (List.map
                  (fun (k, v) -> json_string k ^ ": " ^ json_string v)
                  labels));
          (match inst with
          | I_counter c -> Format.fprintf fmt "\"value\": %d}" (Counter.value c)
          | I_gauge g ->
              Format.fprintf fmt "\"value\": %a}" pp_float (Gauge.value g)
          | I_hist h ->
              let s = Histogram.summary h in
              let n = Stats.Summary.count s in
              if n = 0 then Format.fprintf fmt "\"count\": 0, \"sum\": 0}"
              else
                Format.fprintf fmt
                  "\"count\": %d, \"sum\": %a, \"mean\": %a, \"p50\": %a, \
                   \"p90\": %a, \"p99\": %a, \"max\": %a}"
                  n pp_float (Stats.Summary.total s) pp_float
                  (Stats.Summary.mean s) pp_float
                  (Stats.Summary.percentile s 0.5)
                  pp_float
                  (Stats.Summary.percentile s 0.9)
                  pp_float
                  (Stats.Summary.percentile s 0.99)
                  pp_float (Stats.Summary.max s)
          | I_sketch s ->
              let n = Sketch.count s in
              if n = 0 then Format.fprintf fmt "\"count\": 0, \"sum\": 0}"
              else
                Format.fprintf fmt
                  "\"count\": %d, \"sum\": %a, \"p50\": %a, \"p99\": %a, \
                   \"p999\": %a, \"max\": %a}"
                  n pp_float (Sketch.total s) pp_float
                  (Sketch.quantile s 0.5) pp_float (Sketch.quantile s 0.99)
                  pp_float
                  (Sketch.quantile s 0.999)
                  pp_float (Sketch.max s)))
        (samples f);
      Format.fprintf fmt "@\n    ]}")
    (families_sorted ());
  Format.fprintf fmt "@\n  ]@\n}@\n"

let to_prometheus_string () = Format.asprintf "%a" pp_prometheus ()
let to_json_string () = Format.asprintf "%a" pp_json ()

(* [write_file] picks the format from the extension: [.json] gets the JSON
   dump, anything else the Prometheus text exposition. *)
let write_file path =
  let oc = open_out path in
  output_string oc
    (if Filename.check_suffix path ".json" then to_json_string ()
     else to_prometheus_string ());
  close_out oc
