(* Latency attribution for the UAM single-cell round trip: reconstruct
   (request, reply) pairs from the span store and decompose the measured
   RTT into the phase taxonomy. The decomposition telescopes exactly —
   request phases up to the descriptor pop, the server turnaround (pop to
   reply mint), then the reply phases — so the table's sum is the span
   round trip by construction and must match the wall measurement within
   the client's polling slack. *)

open Engine

type pair = { preq : Span.span; prep : Span.span }

(* request roots paired with the reply span of the same trace; both sides
   must have completed (the request popped, the reply marked) *)
let find_pairs () =
  let spans = Span.spans () in
  let reps = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.span) ->
      if s.name = "uam_rep" then Hashtbl.replace reps s.trace_id s)
    spans;
  List.filter_map
    (fun (s : Span.span) ->
      if s.name = "uam_req" && s.parent = None then
        match Hashtbl.find_opt reps s.trace_id with
        | Some rep
          when Span.journey rep <> None
               && Span.mark_time s Span.Popped <> None ->
            Some { preq = s; prep = rep }
        | _ -> None
      else None)
    spans

(* the table's row labels, in timeline order *)
let slots =
  List.map (fun p -> "req " ^ p)
    (List.filter (fun p -> p <> "dispatch") Span.phase_names)
  @ [ "server turnaround" ]
  @ List.map (fun p -> "rep " ^ p) Span.phase_names

let pair_rows { preq; prep } =
  let req_pop = Option.get (Span.mark_time preq Span.Popped) in
  let req =
    List.filter (fun (p, _) -> p <> "dispatch") (Span.phases preq)
    |> List.map (fun (p, d) -> ("req " ^ p, d))
  in
  let rep =
    List.map (fun (p, d) -> ("rep " ^ p, d)) (Span.phases prep)
  in
  req @ [ ("server turnaround", prep.minted - req_pop) ] @ rep

let pair_total { preq; prep } =
  match Span.journey prep with
  | Some j -> prep.minted + j - preq.minted
  | None -> 0

type t = {
  rtt_us : float;  (** measured mean round trip from the workload *)
  n_pairs : int;
  rows : (string * float) list;  (** mean virtual us per slot *)
  sum_us : float;  (** mean of the per-pair phase sums *)
  send_overhead_us : float;  (** request mint -> doorbell (send CPU) *)
  recv_overhead_us : float;  (** reply demux -> handler return *)
}

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let slot_value rows slot =
  float_of_int (Option.value ~default:0 (List.assoc_opt slot rows))

(* decompose whatever request/reply pairs the live span store holds *)
let analyze ~rtt_us () =
  let pairs = find_pairs () in
  let per_pair = List.map pair_rows pairs in
  let rows =
    List.map
      (fun slot -> (slot, mean (List.map (fun r -> slot_value r slot) per_pair) /. 1e3))
      slots
  in
  let sum_us =
    mean (List.map (fun p -> float_of_int (pair_total p)) pairs) /. 1e3
  in
  let send_overhead_us =
    mean (List.map (fun r -> slot_value r "req send_cpu") per_pair) /. 1e3
  in
  let recv_overhead_us =
    mean
      (List.map
         (fun r -> slot_value r "rep ring_wait" +. slot_value r "rep dispatch")
         per_pair)
    /. 1e3
  in
  {
    rtt_us;
    n_pairs = List.length pairs;
    rows;
    sum_us;
    send_overhead_us;
    recv_overhead_us;
  }

let run ~quick =
  let iters = if quick then 8 else 32 in
  (* reuse the live store when the CLI already enabled spans; otherwise
     collect privately and switch back off afterwards *)
  let was_on = Span.enabled () in
  if not was_on then Span.start ();
  let rtt_us = Common.uam_rtt ~iters ~size:0 () in
  let t = analyze ~rtt_us () in
  if not was_on then Span.stop ();
  t

let print t =
  Format.printf
    "Latency attribution: UAM single-cell round trip decomposed over %d \
     request/reply span pairs@.@."
    t.n_pairs;
  Format.printf "%-22s %10s@." "phase" "mean_us";
  List.iter
    (fun (slot, us) -> Format.printf "%-22s %10.2f@." slot us)
    t.rows;
  Format.printf "%-22s %10.2f@." "sum of phases" t.sum_us;
  Format.printf "%-22s %10.2f@.@." "measured RTT" t.rtt_us;
  Format.printf
    "send overhead (mint->doorbell) %.1f us, receive overhead \
     (ring+dispatch) %.1f us; Table 2 overhead row: 6 us@."
    t.send_overhead_us t.recv_overhead_us

let checks t =
  let slot_sum = List.fold_left (fun a (_, us) -> a +. us) 0. t.rows in
  [
    ("request/reply span pairs reconstructed", t.n_pairs > 0);
    ( "phase rows telescope to the span round trip (0.1 us)",
      Float.abs (slot_sum -. t.sum_us) <= 0.1 );
    ( "phases sum to the measured RTT within 10%",
      Float.abs (t.sum_us -. t.rtt_us) <= 0.1 *. t.rtt_us );
    ( "send+receive overhead in the Table 2 band (6 us, 2..12)",
      let o = t.send_overhead_us +. t.recv_overhead_us in
      o >= 2. && o <= 12. );
  ]

(* printed by the CLI's [--breakdown] after any experiment run *)
let pp_report ppf () =
  Format.fprintf ppf "@.Per-phase latency attribution (all spans):@.@.";
  Format.fprintf ppf "%a" Span.pp_attribution ();
  let pairs = find_pairs () in
  if pairs <> [] then begin
    let t = analyze ~rtt_us:nan () in
    Format.fprintf ppf
      "@.UAM round-trip decomposition (%d request/reply pairs):@.@."
      t.n_pairs;
    List.iter
      (fun (slot, us) -> Format.fprintf ppf "%-22s %10.2f@." slot us)
      t.rows;
    Format.fprintf ppf "%-22s %10.2f@." "sum (span RTT)" t.sum_us
  end
