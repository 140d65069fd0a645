(* One frame-stack profiler, two clocks.

   Layers push/pop named frames around the regions that do work; the
   frames feed two trees of the same shape that differ only in what they
   measure and when they charge it.

   Virtual clock: simulated time. The places that actually account
   virtual time — [Host.Cpu]'s charges, [Sync.Server] — report it
   with [charge] at the moment it is charged, *before* the implied
   [Proc.sleep]. Attributing at the charge site rather than measuring
   elapsed time between push and pop is what keeps the numbers honest in a
   discrete-event world: while one process sleeps through its charge,
   other processes (other hosts, the NI, timers) run, and their time must
   not leak into the sleeping frame. Stacks are kept per host, each under
   a synthetic [host<N>] root whose exclusive time is the elapsed virtual
   time minus everything attributed beneath it, so idle time is visible
   and the root's inclusive time equals elapsed by construction. Two
   processes on one host can interleave pushes and pops across sleeps, in
   which case a pop may remove the other process's frame; stacks stay
   balanced and time conserved, and a charge landing in that window is
   attributed to the unioned path (DESIGN.md §13).

   Wall clock: the simulator's own monotonic time and GC allocation.
   Every *transition* — frame push/pop and event dispatch begin/end (fed
   by [Sim.step]) — charges the interval since the previous one to the
   node on top of the single stack, so nothing is double-counted and the
   root's inclusive totals equal the measured elapsed totals. The root is
   [engine]; its depth-1 children are event kinds ([ev:<label>], the
   static [~label] given to [Sim.schedule]) and frames entered outside
   any event. An event window starts with an empty stack above its kind
   node and rewinds whatever the thunk left open (a process that went to
   sleep mid-frame), so a sleeping frame never absorbs the wall time of
   the processes that run while it sleeps. Time between events is the
   root's exclusive time: the event loop's own overhead. The wall clock
   also owns the bounded histograms behind the event-queue introspection.

   Neither clock pins the per-cell path. [Sync.Server] charges NI
   occupancy per batch on the train path and refunds what a split hands
   back, so the virtual tree matches the per-cell run's; wall attribution
   is per event window and per schedule label. Both profile whichever
   path actually runs.

   Both clocks are process-global, off by default, and cost one boolean
   test per call when disabled, so runs with them off are byte-identical
   to runs without them. The folded ("collapsed-stack") output is the
   flamegraph.pl / speedscope interchange format: one line per stack,
   semicolon-separated frames, a space, and the exclusive value. *)

type clock = Virtual | Wall

type node = {
  name : string;
  children : (string, node) Hashtbl.t;
  mutable order : string list; (* creation order, reversed *)
  mutable self : int; (* exclusive ns on this tree's clock *)
  mutable words : float; (* exclusive allocated words (wall tree only) *)
}

let mk_node name =
  { name; children = Hashtbl.create 4; order = []; self = 0; words = 0. }

let child parent name =
  match Hashtbl.find_opt parent.children name with
  | Some n -> n
  | None ->
      let n = mk_node name in
      Hashtbl.replace parent.children name n;
      parent.order <- name :: parent.order;
      n

let rec inclusive value n =
  Hashtbl.fold (fun _ c acc -> acc + inclusive value c) n.children (value n)

let self_ns n = n.self
let self_words n = int_of_float n.words

(* A frame stack: [frames] (innermost first) open above [base], which is
   the root except inside a wall-clock event window, where it is the
   event's kind node. *)
type stack = { root : node; mutable base : node; mutable frames : node list }

let new_stack name =
  let root = mk_node name in
  { root; base = root; frames = [] }

let top s = match s.frames with n :: _ -> n | [] -> s.base
let enter s name = s.frames <- child (top s) name :: s.frames

let leave s underflows =
  match s.frames with _ :: rest -> s.frames <- rest | [] -> incr underflows

(* Prepend the stacks below [n] to [acc] in reverse deterministic order
   (children in creation order). [extra] is added to [n]'s own value; the
   root line is listed even when empty. *)
let walk value n extra acc =
  let rec go path n extra acc =
    let path = path @ [ n.name ] in
    let self = value n + extra in
    let acc =
      if self > 0 || path = [ n.name ] then (path, self) :: acc else acc
    in
    List.fold_left
      (fun acc name -> go path (Hashtbl.find n.children name) 0 acc)
      acc (List.rev n.order)
  in
  go [] n extra acc

(* --- virtual clock: per-host stacks charged at charge sites ----------- *)

let v_on = ref false
let v_start = ref 0
let v_hosts : (int, stack) Hashtbl.t = Hashtbl.create 8
let v_order : int list ref = ref []
let v_underflows = ref 0

let host_stack host =
  match Hashtbl.find_opt v_hosts host with
  | Some h -> h
  | None ->
      let h = new_stack (Printf.sprintf "host%d" host) in
      Hashtbl.replace v_hosts host h;
      v_order := host :: !v_order;
      h

let charge ?(host = 0) ?(frames = []) ns =
  if !v_on && ns > 0 then begin
    let n = List.fold_left child (top (host_stack host)) frames in
    n.self <- n.self + ns
  end

let charge_root ?(host = 0) ~frames ns =
  if !v_on && ns <> 0 then begin
    let n = List.fold_left child (host_stack host).root frames in
    n.self <- n.self + ns
  end

let depth ~host =
  match Hashtbl.find_opt v_hosts host with
  | None -> 0
  | Some h -> List.length h.frames

let hosts () = List.rev !v_order

(* --- wall clock: one stack charged at transitions ---------------------- *)

type kind = {
  mutable k_events : int;
  mutable k_ns : int;
  mutable k_words : float;
}

let w_on = ref false
let wall = ref (new_stack "engine")
let saved_frames : node list ref = ref [] (* outside the event window *)
let event_depth = ref 0
let cur_kind : kind option ref = ref None
let ev_ns0 = ref 0
let ev_words0 = ref 0.
let t_start = ref 0
let last_ns = ref 0
let last_words = ref 0.
let stopped_elapsed : int option ref = ref None
let w_underflows = ref 0
let dangling_frames = ref 0
let kinds : (string, kind) Hashtbl.t = Hashtbl.create 16
let kind_order : string list ref = ref []

(* Words allocated so far. Promoted words are counted once in the minor
   heap and again in the major heap, so they are subtracted once. The
   minor part is [Gc.minor_words], which includes the live minor heap:
   [Gc.counters]'s minor count only moves at a minor collection, so two
   reads of equal work differed by whatever sat in the minor heap. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Charge the interval since the previous transition to the frame that
   was executing through it, then restamp. *)
let stamp () =
  let now = Selfprof.now_ns () in
  let words = alloc_words () in
  let n = top !wall in
  n.self <- n.self + (now - !last_ns);
  n.words <- n.words +. (words -. !last_words);
  last_ns := now;
  last_words := words

(* bounded histograms for the queue introspection: index = value clamped
   to the last bucket, so memory is constant no matter how hot the run *)
let hist_buckets = 64
let pop_cost = Array.make hist_buckets 0
let pop_cost_sum = ref 0
let pop_cost_count = ref 0
let batch_size = Array.make hist_buckets 0
let batch_size_sum = ref 0
let batch_size_count = ref 0

(* At stop, fold per-layer totals into the metrics registry so an
   ordinary --metrics dump carries the wall and allocation story. The
   root's own exclusive share is the event loop, reported as
   layer="engine". *)
let fold_metrics () =
  let emit layer ns words =
    Metrics.Counter.add
      (Metrics.counter ~help:"wall-clock ns attributed by the self-profiler"
         "selfprof_wall_ns_total"
         [ ("layer", layer) ])
      ns;
    Metrics.Counter.add
      (Metrics.counter
         ~help:"GC words allocated, attributed by the self-profiler"
         "selfprof_alloc_words_total"
         [ ("layer", layer) ])
      words
  in
  let root = !wall.root in
  emit root.name root.self (self_words root);
  List.iter
    (fun name ->
      let c = Hashtbl.find root.children name in
      emit name (inclusive self_ns c) (inclusive self_words c))
    (List.rev root.order)

let event_begin ~label =
  if !w_on then begin
    incr event_depth;
    if !event_depth = 1 then begin
      stamp ();
      let label = if label = "" then "event" else label in
      let w = !wall in
      saved_frames := w.frames;
      w.frames <- [];
      w.base <- child w.root ("ev:" ^ label);
      cur_kind :=
        Some
          (match Hashtbl.find_opt kinds label with
          | Some k -> k
          | None ->
              let k = { k_events = 0; k_ns = 0; k_words = 0. } in
              Hashtbl.replace kinds label k;
              kind_order := label :: !kind_order;
              k);
      ev_ns0 := !last_ns;
      ev_words0 := !last_words
    end
  end

let event_end () =
  if !w_on && !event_depth > 0 then begin
    if !event_depth = 1 then begin
      stamp ();
      (* frames left open by a process that went to sleep: rewind them;
         their wall time stays where it was actually spent *)
      let w = !wall in
      dangling_frames := !dangling_frames + List.length w.frames;
      w.frames <- !saved_frames;
      w.base <- w.root;
      saved_frames := [];
      (match !cur_kind with
      | Some k ->
          k.k_events <- k.k_events + 1;
          k.k_ns <- k.k_ns + (!last_ns - !ev_ns0);
          k.k_words <- k.k_words +. (!last_words -. !ev_words0)
      | None -> ());
      cur_kind := None
    end;
    decr event_depth
  end

let dangling () = !dangling_frames

let observe_pop_cost c =
  let c = max 0 c in
  let i = min c (hist_buckets - 1) in
  pop_cost.(i) <- pop_cost.(i) + 1;
  pop_cost_sum := !pop_cost_sum + c;
  incr pop_cost_count

let observe_batch n =
  if n > 0 then begin
    let i = min n (hist_buckets - 1) in
    batch_size.(i) <- batch_size.(i) + 1;
    batch_size_sum := !batch_size_sum + n;
    incr batch_size_count
  end

let buckets_of a =
  let out = ref [] in
  for i = hist_buckets - 1 downto 0 do
    if a.(i) > 0 then out := (i, a.(i)) :: !out
  done;
  !out

let mean sum count =
  if count = 0 then 0. else float_of_int sum /. float_of_int count

let pop_cost_hist () = buckets_of pop_cost
let pop_cost_mean () = mean !pop_cost_sum !pop_cost_count
let batch_size_hist () = buckets_of batch_size
let batch_size_mean () = mean !batch_size_sum !batch_size_count

(* --- both clocks --------------------------------------------------------- *)

let enabled = function Virtual -> !v_on | Wall -> !w_on

let clear = function
  | Virtual ->
      Hashtbl.reset v_hosts;
      v_order := [];
      v_underflows := 0;
      v_start := Clock.cumulative ()
  | Wall ->
      wall := new_stack "engine";
      saved_frames := [];
      event_depth := 0;
      cur_kind := None;
      w_underflows := 0;
      dangling_frames := 0;
      Hashtbl.reset kinds;
      kind_order := [];
      Array.fill pop_cost 0 hist_buckets 0;
      pop_cost_sum := 0;
      pop_cost_count := 0;
      Array.fill batch_size 0 hist_buckets 0;
      batch_size_sum := 0;
      batch_size_count := 0;
      stopped_elapsed := None;
      last_ns := Selfprof.now_ns ();
      last_words := alloc_words ();
      t_start := !last_ns

let start clock =
  clear clock;
  match clock with Virtual -> v_on := true | Wall -> w_on := true

let stop = function
  | Virtual -> v_on := false
  | Wall ->
      if !w_on then begin
        stamp ();
        stopped_elapsed := Some (!last_ns - !t_start);
        w_on := false;
        fold_metrics ()
      end

let elapsed = function
  | Virtual -> Clock.cumulative () - !v_start
  | Wall -> (
      match !stopped_elapsed with
      | Some e -> e
      | None -> if !w_on then Selfprof.now_ns () - !t_start else 0)

let unmatched_pops = function
  | Virtual -> !v_underflows
  | Wall -> !w_underflows

(* One frame site feeds both clocks: virtual time is attributed at charge
   sites, wall time at transitions, and neither reads the other's
   accumulators, so --profile and --selfprof compose without double
   charging. *)
let push ?(host = 0) name =
  if !w_on then begin
    stamp ();
    enter !wall name
  end;
  if !v_on then enter (host_stack host) name

let pop ?(host = 0) () =
  if !w_on then begin
    stamp ();
    leave !wall w_underflows
  end;
  if !v_on then leave (host_stack host) v_underflows

(* Each root's exclusive value is padded with the time not attributed
   beneath it (idle for a host, uncharged tail time while the wall clock
   still runs), clamped at 0 in case concurrent same-host charges ever
   overlap past 100% utilization. *)
let stacks clock =
  let with_residual el s acc =
    walk self_ns s.root (max 0 (el - inclusive self_ns s.root)) acc
  in
  List.rev
    (match clock with
    | Virtual ->
        let el = elapsed Virtual in
        List.fold_left
          (fun acc host -> with_residual el (Hashtbl.find v_hosts host) acc)
          [] (hosts ())
    | Wall -> with_residual (elapsed Wall) !wall [])

let alloc_stacks () = List.rev (walk self_words !wall.root 0 [])

let to_folded_string clock =
  let b = Buffer.create 4096 in
  List.iter
    (fun (path, self) ->
      if self > 0 then begin
        Buffer.add_string b (String.concat ";" path);
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int self);
        Buffer.add_char b '\n'
      end)
    (stacks clock);
  Buffer.contents b

let write_folded clock path =
  let oc = open_out path in
  output_string oc (to_folded_string clock);
  close_out oc

let kind_summaries () =
  List.rev_map
    (fun label ->
      let k = Hashtbl.find kinds label in
      (label, k.k_events, k.k_ns, k.k_words))
    !kind_order

let pp_summary ppf () =
  let total_ev = Hashtbl.fold (fun _ k acc -> acc + k.k_events) kinds 0 in
  Format.fprintf ppf
    "self-profile: %d events dispatched over %.3f ms wall@." total_ev
    (float_of_int (elapsed Wall) /. 1e6);
  Format.fprintf ppf "  %-24s %10s %12s %12s %14s@." "event kind" "events"
    "us/event" "words/event" "wall total ms";
  List.iter
    (fun (label, events, ns, words) ->
      if events > 0 then
        Format.fprintf ppf "  %-24s %10d %12.3f %12.1f %14.3f@." label events
          (float_of_int ns /. 1e3 /. float_of_int events)
          (words /. float_of_int events)
          (float_of_int ns /. 1e6))
    (kind_summaries ());
  if !pop_cost_count > 0 then
    Format.fprintf ppf
      "  queue: mean pop cost %.2f heap ops, mean same-timestamp batch %.2f@."
      (pop_cost_mean ()) (batch_size_mean ())
