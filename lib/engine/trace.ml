(* Structured trace events stamped with the virtual-nanosecond clock.

   The tracer is process-global: experiments create their simulators deep
   inside library code, so [Sim.create] registers each new simulator's clock
   (and a fresh Chrome "pid") here rather than having every constructor
   thread a tracer handle through three layers of the stack. Exactly one
   simulator is live at a time in every runner, which makes the
   last-registered clock the active one.

   Disabled tracing must cost nothing on the hot paths: [enabled] is a
   single mutable bool read, and every instrumentation site guards argument
   construction behind it. *)

type category = Cell | Desc | Mux | Tcp | Am | Cpu

let category_name = function
  | Cell -> "cell"
  | Desc -> "desc"
  | Mux -> "mux"
  | Tcp -> "tcp"
  | Am -> "am"
  | Cpu -> "cpu"

type arg = Int of int | Float of float | Str of string

type phase =
  | Instant
  | Complete of int (* duration in virtual ns *)
  | Flow_start of int (* flow id *)
  | Flow_end of int

type event = {
  ts : int; (* virtual ns *)
  cat : category;
  ph : phase;
  name : string;
  pid : int; (* simulator generation (one per Sim.create) *)
  tid : int; (* host id where the emitter knows it; 0 otherwise *)
  args : (string * arg) list;
}

let on = ref false
let clock : (unit -> int) ref = ref (fun () -> 0)
let next_pid = ref 0
let cur_pid = ref 0

(* Bounded ring of the most recent events; older ones are overwritten. *)
let default_capacity = 65_536

let dummy =
  { ts = 0; cat = Cpu; ph = Instant; name = ""; pid = 0; tid = 0; args = [] }

let buf = ref [||]
let head = ref 0
let total = ref 0

(* Train-granular slices (DESIGN.md §15): one mutable record per
   coarse-grained span a plan commit synthesizes (uplink serialization,
   switch transit, downlink serialization of a whole train). They live in
   their own ring because truncation listeners patch them in place —
   a split train shrinks its slices to the kept prefix, a fully cut one
   drops them — and they carry future timestamps, so [events] merges them
   with the per-cell ring by timestamp at read time. *)
type slice = {
  mutable sl_ts : int;
  mutable sl_dur : int;
  mutable sl_live : bool;
  sl_cat : category;
  sl_name : string;
  sl_pid : int;
  sl_tid : int;
  sl_args : (string * arg) list;
}

let slice_buf : slice array ref = ref [||]
let slice_head = ref 0
let slice_total = ref 0

let dummy_slice =
  {
    sl_ts = 0;
    sl_dur = 0;
    sl_live = false;
    sl_cat = Cpu;
    sl_name = "";
    sl_pid = 0;
    sl_tid = 0;
    sl_args = [];
  }

let enabled () = !on

let start ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.start: capacity must be positive";
  buf := Array.make capacity dummy;
  head := 0;
  total := 0;
  slice_buf := Array.make capacity dummy_slice;
  slice_head := 0;
  slice_total := 0;
  on := true

let stop () = on := false

let clear () =
  buf := [||];
  head := 0;
  total := 0;
  slice_buf := [||];
  slice_head := 0;
  slice_total := 0

(* Called by [Sim.create]: the new simulator becomes the clock source and
   gets a fresh pid so sub-runs show up as separate tracks in Perfetto. *)
let attach_clock f =
  incr next_pid;
  cur_pid := !next_pid;
  clock := f

(* Ring overwrites are silent data loss; surface them in Metrics so a
   too-small ring is visible in every dump. Registered lazily: a run
   that never overflows keeps its dumps unchanged. *)
let dropped_counter = ref None

let note_drop () =
  let c =
    match !dropped_counter with
    | Some c -> c
    | None ->
        let c =
          Metrics.counter
            ~help:"Trace events lost to ring-buffer overwrite"
            "trace_events_dropped_total" []
        in
        dropped_counter := Some c;
        c
  in
  Metrics.Counter.inc c

let record e =
  let cap = Array.length !buf in
  if cap > 0 then begin
    if !total >= cap then note_drop ();
    !buf.(!head) <- e;
    head := (!head + 1) mod cap;
    incr total
  end

let emit ?(tid = 0) ?(args = []) cat ph name =
  if !on then
    record { ts = !clock (); cat; ph; name; pid = !cur_pid; tid; args }

let instant ?tid ?args cat name = emit ?tid ?args cat Instant name
let complete ?tid ?args ~dur cat name = emit ?tid ?args cat (Complete dur) name

(* Flow events: arrows between slices in Perfetto. All points of one
   flow share the same id (and should share a name). *)
let flow_start ?tid ?args ~id cat name =
  emit ?tid ?args cat (Flow_start id) name

let flow_end ?tid ?args ~id cat name = emit ?tid ?args cat (Flow_end id) name

let train_slice ?(tid = 0) ?(args = []) cat ~ts ~dur name =
  let s =
    {
      sl_ts = ts;
      sl_dur = dur;
      sl_live = true;
      sl_cat = cat;
      sl_name = name;
      sl_pid = !cur_pid;
      sl_tid = tid;
      sl_args = args;
    }
  in
  let cap = Array.length !slice_buf in
  if cap > 0 then begin
    if !slice_total >= cap then note_drop ();
    !slice_buf.(!slice_head) <- s;
    slice_head := (!slice_head + 1) mod cap;
    incr slice_total
  end;
  s

(* (name, tid, start, end) of each slice of a committed train covering its
   first [k] cells: the uplink, then per stage the switch transit and its
   output link — "train.trunk" inside the fabric, the historical
   "train.downlink" at the egress stage. *)
let train_bounds (p : Trainplan.t) k =
  let last = Array.length p.stages - 1 in
  ("train.uplink", p.src, p.up_starts.(0), p.up_starts.(k - 1) + p.up_cell_time)
  :: List.concat
       (List.mapi
          (fun j (st : Trainplan.stage) ->
            [
              ( "train.switch",
                st.out_port,
                st.arrivals.(0) - st.transit,
                st.arrivals.(k - 1) );
              ( (if j = last then "train.downlink" else "train.trunk"),
                st.out_port,
                st.starts.(0),
                st.starts.(k - 1) + st.cell_time );
            ])
          (Array.to_list p.stages))

let on_train (p : Trainplan.t) =
  if not !on then Trainplan.no_undo
  else
    let args = [ ("vci", Int p.vci); ("cells", Int p.n) ] in
    let slices =
      List.map
        (fun (name, tid, ts, fin) ->
          train_slice Cell ~tid ~args ~ts ~dur:(fin - ts) name)
        (train_bounds p p.n)
    in
    fun ~keep ~now:_ ->
      if keep = 0 then List.iter (fun s -> s.sl_live <- false) slices
      else
        List.iter2
          (fun s (_, _, _, fin) -> s.sl_dur <- fin - s.sl_ts)
          slices (train_bounds p keep)

let total_events () = !total + !slice_total

let dropped_events () =
  let overwritten buf total =
    let cap = Array.length !buf in
    if cap = 0 then !total else max 0 (!total - cap)
  in
  overwritten buf total + overwritten slice_buf slice_total

let event_of_slice s =
  {
    ts = s.sl_ts;
    cat = s.sl_cat;
    ph = Complete s.sl_dur;
    name = s.sl_name;
    pid = s.sl_pid;
    tid = s.sl_tid;
    args = s.sl_args;
  }

let live_slices () =
  let cap = Array.length !slice_buf in
  let n = min !slice_total cap in
  let first = if !slice_total <= cap then 0 else !slice_head in
  List.init n (fun i -> !slice_buf.((first + i) mod cap))
  |> List.filter (fun s -> s.sl_live)
  |> List.stable_sort (fun a b -> compare a.sl_ts b.sl_ts)

let events () =
  let cap = Array.length !buf in
  let n = min !total cap in
  let first = if !total <= cap then 0 else !head in
  let base = List.init n (fun i -> !buf.((first + i) mod cap)) in
  (* Per-cell emissions arrive in clock order; slices carry planned future
     timestamps, so weave them in by timestamp (base events win ties to
     keep the per-cell-only view unchanged). *)
  match live_slices () with
  | [] -> base
  | slices ->
      let rec merge acc slices base =
        match (slices, base) with
        | [], base -> List.rev_append acc base
        | slices, [] -> List.rev_append acc (List.map event_of_slice slices)
        | s :: stl, e :: _ when s.sl_ts < e.ts ->
            merge (event_of_slice s :: acc) stl base
        | slices, e :: etl -> merge (e :: acc) slices etl
      in
      merge [] slices base

(* --- Chrome trace_event JSON export -------------------------------- *)

(* Chrome timestamps are microseconds; three decimals keep ns exactness. *)
let us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1_000.)

let add_args b args =
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Json.escape b k;
      Buffer.add_string b "\":";
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Float f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
      | Str s ->
          Buffer.add_char b '"';
          Json.escape b s;
          Buffer.add_char b '"')
    args;
  Buffer.add_char b '}'

let add_event b e =
  Buffer.add_string b "{\"name\":\"";
  Json.escape b e.name;
  Buffer.add_string b "\",\"cat\":\"";
  Buffer.add_string b (category_name e.cat);
  Buffer.add_string b "\",\"ph\":\"";
  (match e.ph with
  | Instant -> Buffer.add_char b 'i'
  | Complete _ -> Buffer.add_char b 'X'
  | Flow_start _ -> Buffer.add_char b 's'
  | Flow_end _ -> Buffer.add_char b 'f');
  Buffer.add_string b "\",\"ts\":";
  Buffer.add_string b (us e.ts);
  (match e.ph with
  | Complete dur ->
      Buffer.add_string b ",\"dur\":";
      Buffer.add_string b (us dur)
  | Instant -> Buffer.add_string b ",\"s\":\"t\""
  | Flow_start id -> Buffer.add_string b (Printf.sprintf ",\"id\":%d" id)
  | Flow_end id ->
      Buffer.add_string b (Printf.sprintf ",\"id\":%d,\"bp\":\"e\"" id));
  Buffer.add_string b ",\"pid\":";
  Buffer.add_string b (string_of_int e.pid);
  Buffer.add_string b ",\"tid\":";
  Buffer.add_string b (string_of_int e.tid);
  if e.args <> [] then add_args b e.args;
  Buffer.add_char b '}'

(* A bare JSON array of event objects — the form both chrome://tracing and
   Perfetto accept directly. *)
let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      add_event b e)
    (events ());
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let write_chrome_file path =
  let oc = open_out path in
  output_string oc (to_chrome_json ());
  close_out oc
