open Engine

(* --- Space-Saving top-K ------------------------------------------------ *)

module Topk = struct
  type 'a entry = { key : 'a; mutable est : int; mutable err : int }
  type 'a t = { k : int; table : ('a, 'a entry) Hashtbl.t }

  let create ~k =
    if k <= 0 then invalid_arg "Topk.create: k must be positive";
    { k; table = Hashtbl.create (2 * k) }

  let offer t key w =
    match Hashtbl.find_opt t.table key with
    | Some e -> e.est <- e.est + w
    | None ->
        if w <= 0 then ()
        else if Hashtbl.length t.table < t.k then
          Hashtbl.add t.table key { key; est = w; err = 0 }
        else begin
          (* evict the minimum-estimate entry; the newcomer inherits its
             estimate as over-count error (est >= true >= est - err) *)
          let min_e =
            Hashtbl.fold
              (fun _ e acc ->
                match acc with
                | Some m when m.est <= e.est -> acc
                | _ -> Some e)
              t.table None
          in
          match min_e with
          | None -> assert false
          | Some m ->
              Hashtbl.remove t.table m.key;
              Hashtbl.add t.table key { key; est = m.est + w; err = m.est }
        end

  (* ties in key order, so the listing does not depend on hashing *)
  let entries t =
    List.sort
      (fun (ka, a, _) (kb, b, _) ->
        if a = b then compare ka kb else compare b a)
      (Hashtbl.fold (fun _ e acc -> (e.key, e.est, e.err) :: acc) t.table [])
end

(* --- global switch ----------------------------------------------------- *)

type config = { exact_flows : int; k : int }

let configured : config option ref = ref None

let configure ?(exact_flows = 1024) ?(k = 16) () =
  if exact_flows < 0 then invalid_arg "Flowstat.configure: exact_flows";
  configured := Some { exact_flows; k }

let disable () = configured := None
let active () = !configured <> None
let observing () = active () || Pathrec.enabled ()

(* --- per-fabric instance ----------------------------------------------- *)

(* Exact hop tables are real metrics counters so the flow families land
   in every registry dump with no extra plumbing; sketched flows carry
   only their identity and ride the top-K. *)
type hopstat = {
  hs_cells : Metrics.Counter.t;
  hs_bytes : Metrics.Counter.t;
  hs_drops : Metrics.Counter.t;
  hs_retx : Metrics.Counter.t;
}

type flow = {
  fl_src : int;
  fl_dst : int;
  fl_vcis : int array;
  fl_label : string;
  fl_exact : hopstat array option;
}

type t = {
  cfg : config;
  by_key : (int * int, flow) Hashtbl.t; (* (src, uplink VCI) *)
  mutable order : flow list; (* reversed registration order *)
  mutable n_exact : int;
  topk : (int * int) Topk.t;
      (* keyed like [by_key]: a flow's own counters move, so hashing the
         flow itself would file every offer under a new key *)
}

let create () =
  let cfg =
    match !configured with
    | Some c -> c
    | None -> invalid_arg "Flowstat.create: not configured"
  in
  {
    cfg;
    by_key = Hashtbl.create 64;
    order = [];
    n_exact = 0;
    topk = Topk.create ~k:cfg.k;
  }

let flow_label_of ~src ~dst ~vcis =
  Printf.sprintf "%d:%d:%s" src dst
    (String.concat "," (Array.to_list (Array.map string_of_int vcis)))

let register t ~src ~dst ~vcis =
  let label = flow_label_of ~src ~dst ~vcis in
  let exact =
    if t.n_exact >= t.cfg.exact_flows then None
    else begin
      t.n_exact <- t.n_exact + 1;
      Some
        (Array.init (Array.length vcis) (fun hop ->
             let labels =
               [ ("flow", label); ("hop", string_of_int hop) ]
             in
             {
               hs_cells =
                 Metrics.counter
                   ~help:"cells a flow pushed through a fabric stage"
                   "atm_flow_cells_total" labels;
               hs_bytes =
                 Metrics.counter
                   ~help:"payload bytes a flow pushed through a fabric stage"
                   "atm_flow_bytes_total" labels;
               hs_drops =
                 Metrics.counter
                   ~help:"a flow's cells lost entering a fabric stage"
                   "atm_flow_drops_total" labels;
               hs_retx =
                 Metrics.counter
                   ~help:"PDUs the sender retransmitted on a flow"
                   "atm_flow_retransmits_total" labels;
             }))
    end
  in
  let fl = { fl_src = src; fl_dst = dst; fl_vcis = vcis; fl_label = label; fl_exact = exact } in
  Hashtbl.replace t.by_key (src, vcis.(0)) fl;
  t.order <- fl :: t.order;
  fl

let count t fl ~hop ~cells =
  (match fl.fl_exact with
  | Some hops when hop < Array.length hops ->
      Metrics.Counter.add hops.(hop).hs_cells cells;
      Metrics.Counter.add hops.(hop).hs_bytes (cells * Cell.payload_size)
  | _ -> ());
  if hop = 0 then
    Topk.offer t.topk (fl.fl_src, fl.fl_vcis.(0)) (cells * Cell.payload_size)

let drop _t fl ~hop =
  match fl.fl_exact with
  | Some hops when hop < Array.length hops ->
      Metrics.Counter.inc hops.(hop).hs_drops
  | _ -> ()

let find t ~src ~vci = Hashtbl.find_opt t.by_key (src, vci)

(* A committed train is loss-free past the uplink, so it folds into the
   per-hop counters in O(stages); its planned TX-FIFO refusals are hop-0
   drops, as each refused per-cell send is. The undo folds back to the
   kept cells and the refusals the link keeps; the per-cell re-run counts
   what really happens to the rest. *)
let on_train t fl (p : Trainplan.t) =
  let counted = ref 0 and charged = ref 0 in
  let fold ~cells ~drops =
    for hop = 0 to Array.length p.stages - 1 do
      count t fl ~hop ~cells:(cells - !counted)
    done;
    (match fl.fl_exact with
    | Some (hs : hopstat array) when Array.length hs > 0 ->
        Metrics.Counter.add hs.(0).hs_drops (drops - !charged)
    | _ -> ());
    counted := cells;
    charged := drops
  in
  fold ~cells:p.n ~drops:(Array.length p.up_drops);
  fun ~keep ~now ->
    fold ~cells:(min keep !counted)
      ~drops:(min (Trainplan.drops_before p ~now) !charged)

let note_retx t ~src ~vci =
  match find t ~src ~vci with
  | Some { fl_exact = Some hops; _ } when Array.length hops > 0 ->
      Metrics.Counter.inc hops.(0).hs_retx
  | _ -> ()

let flow_label fl = fl.fl_label
let flow_src fl = fl.fl_src
let flow_dst fl = fl.fl_dst
let flow_vcis fl = fl.fl_vcis

let flow_hops fl =
  Option.map
    (Array.map (fun hs ->
         ( Metrics.Counter.value hs.hs_cells,
           Metrics.Counter.value hs.hs_bytes,
           Metrics.Counter.value hs.hs_drops,
           Metrics.Counter.value hs.hs_retx )))
    fl.fl_exact

let flows t = List.rev t.order
let exact_flows t = t.n_exact
let top t =
  List.map
    (fun (key, est, err) -> (Hashtbl.find t.by_key key, est, err))
    (Topk.entries t.topk)
