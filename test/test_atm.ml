(* Tests for the ATM substrate: cells, CRC-32, AAL5 SAR, links, the switch
   and the cluster topology. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let mk_payload n = Bytes.init n (fun i -> Char.chr ((i * 7) mod 256))
let mk_buf n = Buf.of_bytes (mk_payload n)
let buf_bytes b = Buf.to_bytes ~layer:"test" b

(* --- Cell ---------------------------------------------------------- *)

let test_cell_sizes () =
  checki "header" 5 Atm.Cell.header_size;
  checki "payload" 48 Atm.Cell.payload_size;
  checki "wire" 53 Atm.Cell.on_wire_size

let test_cell_make () =
  let c = Atm.Cell.make ~vci:42 ~eop:true (Buf.alloc 48) in
  checki "vci" 42 c.Atm.Cell.vci;
  checkb "eop" true c.Atm.Cell.eop;
  let c' = Atm.Cell.with_vci c 7 in
  checki "relabel" 7 c'.Atm.Cell.vci;
  checki "original untouched" 42 c.Atm.Cell.vci

let test_cell_bad_payload () =
  checkb "wrong size rejected" true
    (try
       ignore (Atm.Cell.make ~vci:1 ~eop:false (Buf.alloc 47));
       false
     with Invalid_argument _ -> true);
  checkb "negative vci rejected" true
    (try
       ignore (Atm.Cell.make ~vci:(-1) ~eop:false (Buf.alloc 48));
       false
     with Invalid_argument _ -> true)

(* --- Crc32 --------------------------------------------------------- *)

let test_crc_known_vector () =
  let crc = Atm.Crc32.digest_bytes (Bytes.of_string "123456789") in
  check Alcotest.int32 "check value" 0xCBF43926l crc

let test_crc_empty () =
  check Alcotest.int32 "empty" 0l (Atm.Crc32.digest_bytes Bytes.empty)

let test_crc_chaining () =
  let b = mk_payload 100 in
  let whole = Atm.Crc32.digest b ~pos:0 ~len:100 in
  let first = Atm.Crc32.digest b ~pos:0 ~len:60 in
  let chained = Atm.Crc32.digest ~crc:first b ~pos:60 ~len:40 in
  check Alcotest.int32 "incremental = whole" whole chained

let prop_crc_detects_single_bit_flips =
  QCheck.Test.make ~name:"crc changes under a bit flip" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 0 4000))
    (fun (len, flip) ->
      let b = mk_payload len in
      let crc0 = Atm.Crc32.digest_bytes b in
      let bit = flip mod (len * 8) in
      Bytes.set b (bit / 8)
        (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
      Atm.Crc32.digest_bytes b <> crc0)

(* Bit-at-a-time reference, no table: the definition the sliced loop must
   reproduce (reflected polynomial 0xEDB88320, pre- and post-inverted). *)
let crc_bitwise ?(crc = 0l) b ~pos ~len =
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let prop_crc_matches_bitwise =
  let gen =
    QCheck.Gen.(
      int_range 0 200 >>= fun len ->
      int_range 0 15 >>= fun pos ->
      int_range 0 15 >>= fun slack ->
      int_range 0 len >>= fun cut ->
      ui32 >>= fun crc ->
      bytes_size (return (pos + len + slack)) >|= fun b ->
      (b, pos, len, cut, crc))
  in
  let print (b, pos, len, cut, crc) =
    Printf.sprintf "bytes %S pos %d len %d cut %d crc 0x%08lx"
      (Bytes.to_string b) pos len cut crc
  in
  QCheck.Test.make ~name:"crc32 = bit-at-a-time reference" ~count:500
    (QCheck.make ~print gen) (fun (b, pos, len, cut, crc) ->
      let whole = crc_bitwise ~crc b ~pos ~len in
      let first = Atm.Crc32.digest ~crc b ~pos ~len:cut in
      Atm.Crc32.digest ~crc b ~pos ~len = whole
      && Atm.Crc32.digest ~crc:first b ~pos:(pos + cut) ~len:(len - cut) = whole
      && Atm.Crc32.digest_buf ~crc
           (Buf.append
              (Buf.of_bytes_sub b ~pos ~len:cut)
              (Buf.of_bytes_sub b ~pos:(pos + cut) ~len:(len - cut)))
         = whole)

(* --- Aal5 ---------------------------------------------------------- *)

let test_cells_for () =
  checki "empty payload still needs a cell" 1 (Atm.Aal5.cells_for 0);
  checki "40 bytes fit one cell" 1 (Atm.Aal5.cells_for 40);
  checki "41 bytes need two" 2 (Atm.Aal5.cells_for 41);
  checki "88 fit two" 2 (Atm.Aal5.cells_for 88);
  checki "89 need three" 3 (Atm.Aal5.cells_for 89)

let test_segment_structure () =
  let cells = Atm.Aal5.segment ~vci:9 (mk_buf 100) in
  checki "cell count" (Atm.Aal5.cells_for 100) (Array.length cells);
  Array.iteri
    (fun i c ->
      checki "vci carried" 9 c.Atm.Cell.vci;
      checkb "eop only on last" (i = Array.length cells - 1) c.Atm.Cell.eop)
    cells

let reassemble cells =
  let r = Atm.Aal5.Reassembler.create () in
  Array.fold_left
    (fun acc c -> match Atm.Aal5.Reassembler.push r c with Some x -> Some x | None -> acc)
    None cells

let test_roundtrip_simple () =
  let data = mk_payload 333 in
  match reassemble (Atm.Aal5.segment ~vci:1 (Buf.of_bytes data)) with
  | Some (Ok got) -> check Alcotest.bytes "payload intact" data (buf_bytes got)
  | _ -> Alcotest.fail "reassembly failed"

let prop_aal5_roundtrip =
  QCheck.Test.make ~name:"AAL5 segment/reassemble round-trips" ~count:200
    QCheck.(int_range 0 5_000)
    (fun len ->
      let data = mk_payload len in
      match reassemble (Atm.Aal5.segment ~vci:3 (Buf.of_bytes data)) with
      | Some (Ok got) -> Buf.equal_bytes got data
      | _ -> false)

let test_corruption_detected () =
  let cells = Atm.Aal5.segment ~vci:1 (mk_buf 200) in
  let corrupted =
    Array.mapi
      (fun i (c : Atm.Cell.t) ->
        if i = 1 then begin
          let p = buf_bytes c.payload in
          Bytes.set p 10 (Char.chr (Char.code (Bytes.get p 10) lxor 0xff));
          Atm.Cell.make ~vci:c.vci ~eop:c.eop (Buf.of_bytes p)
        end
        else c)
      cells
  in
  match reassemble corrupted with
  | Some (Error Atm.Aal5.Crc_mismatch) -> ()
  | _ -> Alcotest.fail "corruption not detected"

let test_lost_cell_detected () =
  let cells = Atm.Aal5.segment ~vci:1 (mk_buf 200) in
  (* drop the middle cell: the PDU must be rejected at EOP *)
  let cells = List.filteri (fun i _ -> i <> 1) (Array.to_list cells) in
  (match reassemble (Array.of_list cells) with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "lost cell not detected"
  | None -> Alcotest.fail "no EOP result");
  ()

let test_reassembler_error_count () =
  let r = Atm.Aal5.Reassembler.create () in
  let cells = Atm.Aal5.segment ~vci:1 (mk_buf 100) in
  let cells = List.filteri (fun i _ -> i <> 0) (Array.to_list cells) in
  List.iter (fun c -> ignore (Atm.Aal5.Reassembler.push r c)) cells;
  checki "error counted" 1 (Atm.Aal5.Reassembler.errors r);
  (* a subsequent healthy PDU goes through *)
  (match
     Array.fold_left
       (fun acc c ->
         match Atm.Aal5.Reassembler.push r c with Some x -> Some x | None -> acc)
       None
       (Atm.Aal5.segment ~vci:1 (mk_buf 50))
   with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "recovery after error failed")

let test_interleaved_vcis () =
  (* one reassembler per VCI, as the NI keeps them: cells of two PDUs on
     different VCIs interleave on the wire without corrupting either *)
  let r1 = Atm.Aal5.Reassembler.create () in
  let r2 = Atm.Aal5.Reassembler.create () in
  let d1 = mk_payload 200 and d2 = Bytes.init 150 (fun i -> Char.chr ((i * 3) mod 256)) in
  let c1 = Array.to_list (Atm.Aal5.segment ~vci:1 (Buf.of_bytes d1))
  and c2 = Array.to_list (Atm.Aal5.segment ~vci:2 (Buf.of_bytes d2)) in
  let out1 = ref None and out2 = ref None in
  let rec interleave a b =
    match (a, b) with
    | [], [] -> ()
    | x :: rest, ys ->
        (match Atm.Aal5.Reassembler.push r1 x with
        | Some (Ok p) -> out1 := Some p
        | _ -> ());
        interleave2 rest ys
    | [], y :: rest ->
        (match Atm.Aal5.Reassembler.push r2 y with
        | Some (Ok p) -> out2 := Some p
        | _ -> ());
        interleave [] rest
  and interleave2 a b =
    match b with
    | y :: rest ->
        (match Atm.Aal5.Reassembler.push r2 y with
        | Some (Ok p) -> out2 := Some p
        | _ -> ());
        interleave a rest
    | [] -> interleave a []
  in
  interleave c1 c2;
  (match !out1 with
  | Some p -> check Alcotest.bytes "vci 1 intact" d1 (buf_bytes p)
  | None -> Alcotest.fail "vci 1 incomplete");
  match !out2 with
  | Some p -> check Alcotest.bytes "vci 2 intact" d2 (buf_bytes p)
  | None -> Alcotest.fail "vci 2 incomplete"

let test_pdu_wire_bytes () =
  checki "one-cell pdu" 53 (Atm.Aal5.pdu_wire_bytes 40);
  checki "two-cell pdu" 106 (Atm.Aal5.pdu_wire_bytes 41)

(* --- Link ---------------------------------------------------------- *)

let mk_link ?queue_capacity sim =
  Atm.Link.create sim ?queue_capacity ~bandwidth_mbps:140.
    ~propagation:(Sim.ns 500) ()

let one_cell vci = Atm.Cell.make ~vci ~eop:true (Buf.alloc 48)

let test_link_cell_time () =
  let sim = Sim.create () in
  let l = mk_link sim in
  checki "53 bytes at 140 Mbit/s" 3_029 (Atm.Link.cell_time l)

let test_link_delivery_time () =
  let sim = Sim.create () in
  let l = mk_link sim in
  let at = ref 0 in
  Atm.Link.set_receiver l (fun _ -> at := Sim.now sim);
  ignore (Atm.Link.send l (one_cell 1));
  Sim.run sim;
  checki "serialization + propagation" 3_529 !at

let test_link_fifo_and_serialization () =
  let sim = Sim.create () in
  let l = mk_link sim in
  let arrivals = ref [] in
  Atm.Link.set_receiver l (fun c ->
      arrivals := (c.Atm.Cell.vci, Sim.now sim) :: !arrivals);
  for i = 1 to 3 do
    ignore (Atm.Link.send l (one_cell i))
  done;
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "in order, spaced by the cell time"
    [ (1, 3_529); (2, 6_558); (3, 9_587) ]
    (List.rev !arrivals)

let test_link_queue_overflow () =
  let sim = Sim.create () in
  let l = mk_link ~queue_capacity:2 sim in
  Atm.Link.set_receiver l (fun _ -> ());
  (* one transmitting + two queued fit; the fourth drops *)
  checkb "1" true (Atm.Link.send l (one_cell 1));
  checkb "2" true (Atm.Link.send l (one_cell 2));
  checkb "3" true (Atm.Link.send l (one_cell 3));
  checkb "4 dropped" false (Atm.Link.send l (one_cell 4));
  checki "drop counted" 1 (Atm.Link.cells_dropped l);
  Sim.run sim;
  checki "three sent" 3 (Atm.Link.cells_sent l)

let test_link_loss_injection () =
  let sim = Sim.create () in
  let l = mk_link sim in
  let got = ref 0 in
  Atm.Link.set_receiver l (fun _ -> incr got);
  Lossy.set l ~seed:1 ~p:1.0;
  for _ = 1 to 10 do
    ignore (Atm.Link.send l (one_cell 1))
  done;
  Sim.run sim;
  checki "all lost" 0 !got;
  checki "losses counted" 10 (Atm.Link.cells_dropped l)

(* --- Link planner vs a linear-scan reference ----------------------- *)

(* The planner with its queue counted the original way: every occupancy
   query rescans every planned cell of every pending hop. [Link] answers
   the same queries by binary search; this is the differential reference
   for [Link.plan_chain] / [Link.plan_feed]. A pending hop is its
   (accepts, starts) pair; [tail] is the planned busy-until. *)
module Ref_plan = struct
  exception Refuse

  type t = {
    ct : int;
    cap : int;
    mutable hops : (int array * int array) list;
    mutable tail : int;
  }

  let busy_at r ~tail ~at ~sched =
    if tail < at then false
    else if tail > at then true
    else
      let csched = tail - r.ct in
      if csched < sched then false
      else if csched > sched then true
      else raise Refuse

  let queued_tieaware r ~accepts ~starts ~count ~at ~sched =
    let q = ref 0 in
    for i = 0 to count - 1 do
      let p = accepts.(i) in
      if p < at then begin
        let s = starts.(i) in
        if s > at then incr q
        else if s = at then begin
          let csched = s - r.ct in
          if csched > sched then incr q else if csched = sched then raise Refuse
        end
      end
      else if p = at then raise Refuse
    done;
    !q

  let occupancy r ~la ~ls ~lc ~at ~sched =
    List.fold_left
      (fun acc (accepts, starts) ->
        acc
        + queued_tieaware r ~accepts ~starts ~count:(Array.length accepts) ~at
            ~sched)
      0 r.hops
    + queued_tieaware r ~accepts:la ~starts:ls ~count:lc ~at ~sched

  (* (accepts, starts, drops, queue depth after each acceptance) *)
  let chain r ~n ~first_attempt ~gap =
    try
      let accepts = Array.make n 0 and starts = Array.make n 0 in
      let qafter = Array.make n 0. and drops = ref [] in
      let tail = ref r.tail in
      let at = ref first_attempt and sched = ref (first_attempt - gap) in
      for i = 0 to n - 1 do
        let accepted = ref false in
        while not !accepted do
          if not (busy_at r ~tail:!tail ~at:!at ~sched:!sched) then begin
            accepts.(i) <- !at;
            starts.(i) <- !at;
            tail := !at + r.ct;
            accepted := true
          end
          else begin
            let occ =
              occupancy r ~la:accepts ~ls:starts ~lc:i ~at:!at ~sched:!sched
            in
            if occ >= r.cap then begin
              drops := !at :: !drops;
              sched := !at;
              at := !at + r.ct
            end
            else begin
              accepts.(i) <- !at;
              starts.(i) <- !tail;
              tail := !tail + r.ct;
              qafter.(i) <- float_of_int (occ + 1);
              accepted := true
            end
          end
        done;
        if i < n - 1 then begin
          sched := accepts.(i);
          at := accepts.(i) + gap
        end
      done;
      Some (accepts, starts, Array.of_list (List.rev !drops), qafter)
    with Refuse -> None

  let feed r ~arrivals ~sched_lead ~refuse_occ =
    try
      let n = Array.length arrivals in
      let starts = Array.make n 0 and qafter = Array.make n 0. in
      let tail = ref r.tail in
      for i = 0 to n - 1 do
        let at = arrivals.(i) in
        let sched = at - sched_lead in
        if not (busy_at r ~tail:!tail ~at ~sched) then begin
          starts.(i) <- at;
          tail := at + r.ct
        end
        else begin
          let occ = occupancy r ~la:arrivals ~ls:starts ~lc:i ~at ~sched in
          if occ >= refuse_occ || occ >= r.cap then raise Refuse;
          starts.(i) <- !tail;
          tail := !tail + r.ct;
          qafter.(i) <- float_of_int (occ + 1)
        end
      done;
      Some (arrivals, starts, [||], qafter)
    with Refuse -> None

  let commit r (accepts, starts) =
    r.hops <- r.hops @ [ (accepts, starts) ];
    let n = Array.length starts in
    if n > 0 then r.tail <- max r.tail (starts.(n - 1) + r.ct)

  (* a per-cell [Link.send] at [now] while planned hops are pending *)
  let bridge r ~now =
    let tail = max r.tail now in
    let le x a = Array.fold_left (fun k v -> if v <= x then k + 1 else k) 0 a in
    let queued =
      List.fold_left (fun acc (a, s) -> acc + le now a - le now s) 0 r.hops
    in
    if tail > now && queued >= r.cap then false
    else begin
      commit r ([| now |], [| (if tail > now then tail else now) |]);
      true
    end
end

(* Random link states on a coarse time grid (cell times of 2-8 ns, gaps and
   offsets of a few ns), so attempts land exactly on planned acceptances,
   starts and completions — the ties the planner must refuse or resolve.
   1-3 committed hops, then a bridged per-cell send, then one chain and one
   feed are planned against that state. Each seed is a one-line repro. *)
let prop_planner_matches_scan =
  QCheck.Test.make ~name:"link planner = linear-scan reference" ~count:1_000
    (QCheck.make
       ~print:(Printf.sprintf "seed %d")
       QCheck.Gen.(int_bound 0x3FFF_FFFF))
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let ri lo hi = lo + Random.State.int rs (hi - lo + 1) in
      let pick a = a.(Random.State.int rs (Array.length a)) in
      let ct = pick [| 2; 3; 4; 8 |] and cap = pick [| 1; 2; 3; 5; max_int |] in
      let sim = Sim.create () in
      let link =
        Atm.Link.create sim ~queue_capacity:cap
          ~bandwidth_mbps:(424_000. /. float_of_int ct) ~propagation:5 ()
      in
      Atm.Link.set_receiver link ignore;
      let r = { Ref_plan.ct; cap; hops = []; tail = 0 } in
      let now () = Sim.now sim in
      let agree got want =
        match (got, want) with
        | None, None -> true
        | Some pl, Some (a, s, d, q) ->
            Atm.Link.plan_accepts pl = a
            && Atm.Link.plan_starts pl = s
            && Atm.Link.plan_drops pl = d
            && Atm.Link.plan_queue_after pl = q
        | _ -> false
      in
      (* one random plan of either kind; commits it when both sides agree
         and [commit] is set *)
      let plan_one ~chain ~commit =
        let first = now () + ri 0 (3 * ct) in
        let got, want =
          if chain then
            let n = ri 1 12 and gap = ri 1 (2 * ct) in
            ( Atm.Link.plan_chain link ~n ~first_attempt:first ~gap,
              Ref_plan.chain r ~n ~first_attempt:first ~gap )
          else
            let at = ref (first - 1) in
            let arrivals =
              Array.init (ri 1 12) (fun _ ->
                  at := !at + ri 1 (2 * ct);
                  !at)
            in
            let sched_lead = ri 0 ct
            and refuse_occ = pick [| 1; 2; 4; max_int |] in
            ( Atm.Link.plan_feed link ~arrivals ~sched_lead ~refuse_occ,
              Ref_plan.feed r ~arrivals ~sched_lead ~refuse_occ )
        in
        let ok = agree got want in
        (match (got, want) with
        | Some pl, Some (a, s, _, _) when ok && commit ->
            ignore (Atm.Link.commit_plan link pl ~fold_sent:true);
            Ref_plan.commit r (a, s)
        | _ -> ());
        ok
      in
      let ok = ref true in
      for _ = 1 to ri 1 3 do
        ok := !ok && plan_one ~chain:(Random.State.bool rs) ~commit:true
      done;
      (* advance to an instant some planned cell still occupies, so the
         per-cell send bridges through the plans rather than going legacy *)
      if r.tail > 0 then begin
        Sim.run ~until:(ri 0 (r.tail - 1)) sim;
        ok :=
          !ok
          && Atm.Link.send link (one_cell 1) = Ref_plan.bridge r ~now:(now ())
      end;
      !ok
      && plan_one ~chain:true ~commit:false
      && plan_one ~chain:false ~commit:false)

(* --- Switch -------------------------------------------------------- *)

let test_switch_routing () =
  let sim = Sim.create () in
  let sw = Atm.Switch.create sim ~ports:2 ~transit:(Sim.us 2) () in
  let out = mk_link sim in
  let got = ref [] in
  Atm.Link.set_receiver out (fun c -> got := c.Atm.Cell.vci :: !got);
  Atm.Switch.attach_output sw ~port:1 out;
  Atm.Switch.add_route sw ~in_port:0 ~in_vci:40 ~out_port:1 ~out_vci:77;
  Atm.Switch.input sw ~port:0 (one_cell 40);
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "relabelled and delivered" [ 77 ] !got;
  checki "routed count" 1 (Atm.Switch.cells_routed sw)

let test_switch_unroutable () =
  let sim = Sim.create () in
  let sw = Atm.Switch.create sim ~ports:2 ~transit:(Sim.us 2) () in
  Atm.Switch.input sw ~port:0 (one_cell 99);
  Sim.run sim;
  checki "unroutable counted" 1 (Atm.Switch.unroutable sw)

let test_switch_route_conflict () =
  let sim = Sim.create () in
  let sw = Atm.Switch.create sim ~ports:2 ~transit:(Sim.us 2) () in
  Atm.Switch.add_route sw ~in_port:0 ~in_vci:40 ~out_port:1 ~out_vci:1;
  checkb "duplicate route rejected" true
    (try
       Atm.Switch.add_route sw ~in_port:0 ~in_vci:40 ~out_port:1 ~out_vci:2;
       false
     with Invalid_argument _ -> true)

let test_switch_remove_route () =
  let sim = Sim.create () in
  let sw = Atm.Switch.create sim ~ports:2 ~transit:(Sim.us 2) () in
  let out = mk_link sim in
  Atm.Link.set_receiver out (fun _ -> ());
  Atm.Switch.attach_output sw ~port:1 out;
  Atm.Switch.add_route sw ~in_port:0 ~in_vci:40 ~out_port:1 ~out_vci:77;
  Atm.Switch.remove_route sw ~in_port:0 ~in_vci:40;
  Atm.Switch.input sw ~port:0 (one_cell 40);
  Sim.run sim;
  checki "dropped after removal" 1 (Atm.Switch.unroutable sw)

let test_switch_queue_overflow () =
  let sim = Sim.create () in
  let sw =
    Atm.Switch.create sim ~ports:2 ~transit:(Sim.us 2) ~output_queue_capacity:1 ()
  in
  let out = mk_link sim in
  Atm.Link.set_receiver out (fun _ -> ());
  Atm.Switch.attach_output sw ~port:1 out;
  Atm.Switch.add_route sw ~in_port:0 ~in_vci:40 ~out_port:1 ~out_vci:40;
  for _ = 1 to 10 do
    Atm.Switch.input sw ~port:0 (one_cell 40)
  done;
  Sim.run sim;
  checkb "drops under burst" true (Atm.Switch.cells_dropped sw > 0)

(* The train gate's single-source check is kept as per-output-port source
   counts; it must answer exactly what a scan of the route table would.
   Each step toggles one (in_port, in_vci) route — removed if installed,
   else added — so sequences remove a port's last route and re-add it. *)
let prop_single_source =
  QCheck.Test.make ~name:"plan_route single-source = route-table scan"
    ~count:300
    QCheck.(
      pair (int_range 4 6)
        (list_of_size (Gen.int_range 1 40)
           (triple (int_range 0 5) (int_range 0 3) (int_range 0 5))))
    (fun (ports, steps) ->
      let sim = Sim.create () in
      let sw = Atm.Switch.create sim ~ports ~transit:(Sim.us 2) () in
      for p = 0 to ports - 1 do
        let l = mk_link sim in
        Atm.Link.set_receiver l (fun _ -> ());
        Atm.Switch.attach_output sw ~port:p l
      done;
      let routes = Hashtbl.create 16 in
      let scan_says_single ~in_port ~out_port =
        not
          (Hashtbl.fold
             (fun (ip, _) op other -> other || (op = out_port && ip <> in_port))
             routes false)
      in
      List.for_all
        (fun (ip, in_vci, op) ->
          let in_port = ip mod ports and out_port = op mod ports in
          if Hashtbl.mem routes (in_port, in_vci) then begin
            Atm.Switch.remove_route sw ~in_port ~in_vci;
            Hashtbl.remove routes (in_port, in_vci)
          end
          else begin
            Atm.Switch.add_route sw ~in_port ~in_vci ~out_port ~out_vci:in_vci;
            Hashtbl.replace routes (in_port, in_vci) out_port
          end;
          Hashtbl.fold
            (fun (in_port, in_vci) out_port ok ->
              ok
              && scan_says_single ~in_port ~out_port
                 = Option.is_some (Atm.Switch.plan_route sw ~in_port ~in_vci))
            routes true)
        steps)

(* --- Network ------------------------------------------------------- *)

let test_network_end_to_end () =
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:3 Atm.Network.default_config in
  let conn = Atm.Network.connect net ~a:0 ~b:2 in
  let at2 = ref [] and at0 = ref [] in
  Atm.Network.attach_rx net ~host:2 (fun c -> at2 := c.Atm.Cell.vci :: !at2);
  Atm.Network.attach_rx net ~host:0 (fun c -> at0 := c.Atm.Cell.vci :: !at0);
  Atm.Network.attach_rx net ~host:1 (fun _ -> Alcotest.fail "wrong host");
  checkb "a->b send" true
    (Atm.Network.send net ~host:0 (one_cell conn.side_a.tx_vci));
  checkb "b->a send" true
    (Atm.Network.send net ~host:2 (one_cell conn.side_b.tx_vci));
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "arrived at b with b's rx vci"
    [ conn.side_b.rx_vci ] !at2;
  check (Alcotest.list Alcotest.int) "arrived at a with a's rx vci"
    [ conn.side_a.rx_vci ] !at0

let test_network_vcis_distinct () =
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:4 Atm.Network.default_config in
  let c1 = Atm.Network.connect net ~a:0 ~b:1 in
  let c2 = Atm.Network.connect net ~a:0 ~b:2 in
  let c3 = Atm.Network.connect net ~a:3 ~b:1 in
  checkb "tx vcis on host 0 differ" true (c1.side_a.tx_vci <> c2.side_a.tx_vci);
  checkb "rx vcis on host 1 differ" true (c1.side_b.rx_vci <> c3.side_b.rx_vci)

let test_network_disconnect () =
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:2 Atm.Network.default_config in
  let conn = Atm.Network.connect net ~a:0 ~b:1 in
  let got = ref 0 in
  Atm.Network.attach_rx net ~host:1 (fun _ -> incr got);
  Atm.Network.disconnect net conn;
  ignore (Atm.Network.send net ~host:0 (one_cell conn.side_a.tx_vci));
  Sim.run sim;
  checki "nothing delivered" 0 !got

let test_network_self_connect_rejected () =
  let sim = Sim.create () in
  let net = Atm.Network.create sim ~hosts:2 Atm.Network.default_config in
  checkb "self connect rejected" true
    (try
       ignore (Atm.Network.connect net ~a:1 ~b:1);
       false
     with Invalid_argument _ -> true)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "atm"
    [
      ( "cell",
        [
          Alcotest.test_case "sizes" `Quick test_cell_sizes;
          Alcotest.test_case "make / relabel" `Quick test_cell_make;
          Alcotest.test_case "validation" `Quick test_cell_bad_payload;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc_known_vector;
          Alcotest.test_case "empty" `Quick test_crc_empty;
          Alcotest.test_case "chaining" `Quick test_crc_chaining;
          qt prop_crc_detects_single_bit_flips;
          qt prop_crc_matches_bitwise;
        ] );
      ( "aal5",
        [
          Alcotest.test_case "cells_for" `Quick test_cells_for;
          Alcotest.test_case "segment structure" `Quick test_segment_structure;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_simple;
          qt prop_aal5_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
          Alcotest.test_case "lost cell detected" `Quick test_lost_cell_detected;
          Alcotest.test_case "error count + recovery" `Quick test_reassembler_error_count;
          Alcotest.test_case "interleaved VCIs" `Quick test_interleaved_vcis;
          Alcotest.test_case "wire bytes sawtooth" `Quick test_pdu_wire_bytes;
        ] );
      ( "link",
        [
          Alcotest.test_case "cell time" `Quick test_link_cell_time;
          Alcotest.test_case "delivery time" `Quick test_link_delivery_time;
          Alcotest.test_case "fifo + serialization" `Quick test_link_fifo_and_serialization;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "loss injection" `Quick test_link_loss_injection;
          qt prop_planner_matches_scan;
        ] );
      ( "switch",
        [
          Alcotest.test_case "routing" `Quick test_switch_routing;
          Alcotest.test_case "unroutable" `Quick test_switch_unroutable;
          Alcotest.test_case "route conflict" `Quick test_switch_route_conflict;
          Alcotest.test_case "remove route" `Quick test_switch_remove_route;
          Alcotest.test_case "queue overflow" `Quick test_switch_queue_overflow;
          qt prop_single_source;
        ] );
      ( "network",
        [
          Alcotest.test_case "end to end" `Quick test_network_end_to_end;
          Alcotest.test_case "vcis distinct" `Quick test_network_vcis_distinct;
          Alcotest.test_case "disconnect" `Quick test_network_disconnect;
          Alcotest.test_case "self connect" `Quick test_network_self_connect_rejected;
        ] );
    ]
