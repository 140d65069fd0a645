(* Tests for Engine.Span: causal context propagation across the stack.
   A UAM round trip must produce one connected span tree; a forced
   go-back-N retransmit must appear as a child retry span of the original,
   never a new root; AAL5 cells of one PDU all carry the PDU's context;
   and phase deltas telescope to the span's journey time. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let pair () =
  let c = Cluster.create () in
  let a0 = Uam.create (Cluster.node c 0).unet ~rank:0 ~nodes:2 in
  let a1 = Uam.create (Cluster.node c 1).unet ~rank:1 ~nodes:2 in
  Uam.connect a0 a1;
  (c, a0, a1)

let serve c am =
  ignore (Proc.spawn c.Cluster.sim (fun () -> Uam.poll_until am (fun () -> false)))

let run_roundtrip () =
  let c, a0, a1 = pair () in
  let replied = ref false in
  Uam.register_handler a1 1 (fun am ~src:_ tk ~args:_ ~payload ->
      Uam.reply am (Option.get tk) ~handler:2 ~payload ());
  Uam.register_handler a0 2 (fun _ ~src:_ _ ~args:_ ~payload:_ ->
      replied := true);
  serve c a1;
  ignore
    (Proc.spawn c.sim (fun () ->
         Uam.request a0 ~dst:1 ~handler:1 ~payload:(Buf.of_string "ping") ();
         Uam.poll_until a0 (fun () -> !replied)));
  Sim.run ~until:(Sim.sec 1) c.sim;
  checkb "round trip completed" true !replied

let spans_named name =
  List.filter (fun (s : Span.span) -> s.name = name) (Span.spans ())

let test_roundtrip_one_tree () =
  Span.start ();
  run_roundtrip ();
  let reqs = spans_named "uam_req" in
  checki "one request span" 1 (List.length reqs);
  let req = List.hd reqs in
  checkb "the request is a root" true (req.parent = None);
  let in_trace =
    List.filter
      (fun (s : Span.span) -> s.trace_id = req.trace_id)
      (Span.spans ())
  in
  checkb "reply and acks joined the request's trace" true
    (List.exists (fun (s : Span.span) -> s.name = "uam_rep") in_trace);
  List.iter
    (fun (s : Span.span) ->
      checkb
        (Printf.sprintf "span %s#%d has a parent" s.name s.id)
        true
        (s.id = req.id || s.parent <> None))
    in_trace;
  (* the request crossed the whole data path *)
  List.iter
    (fun m ->
      checkb
        (Printf.sprintf "request marked %s" (Span.mark_name m))
        true
        (Span.mark_time req m <> None))
    [ Span.Doorbell; Span.Injected; Span.Demuxed; Span.Popped; Span.Dispatched ];
  Span.stop ();
  Span.clear ()

let test_phases_telescope () =
  Span.start ();
  run_roundtrip ();
  let spans = Span.spans () in
  checkb "spans recorded" true (spans <> []);
  List.iter
    (fun (s : Span.span) ->
      match Span.journey s with
      | None -> ()
      | Some j ->
          checki
            (Printf.sprintf "phases of %s#%d sum to its journey" s.name s.id)
            j
            (List.fold_left (fun a (_, d) -> a + d) 0 (Span.phases s)))
    spans;
  Span.stop ();
  Span.clear ()

(* drop every uplink cell from host 0 until the virtual time where loss is
   lifted: the first transmission is lost, the ack never comes, and UAM's
   go-back-N timer resends the request *)
let test_retransmit_is_child_not_root () =
  Span.start ();
  let c, a0, a1 = pair () in
  let replied = ref false in
  Uam.register_handler a1 1 (fun am ~src:_ tk ~args:_ ~payload ->
      Uam.reply am (Option.get tk) ~handler:2 ~payload ());
  Uam.register_handler a0 2 (fun _ ~src:_ _ ~args:_ ~payload:_ ->
      replied := true);
  serve c a1;
  let up0 = Atm.Network.uplink c.net ~host:0 in
  Lossy.set up0 ~seed:1 ~p:1.0;
  ignore
    (Sim.schedule c.sim ~delay:(Sim.ms 5) (fun () ->
         Lossy.set up0 ~seed:1 ~p:0.0));
  ignore
    (Proc.spawn c.sim (fun () ->
         Uam.request a0 ~dst:1 ~handler:1 ~payload:(Buf.of_string "ping") ();
         Uam.poll_until a0 (fun () -> !replied)));
  Sim.run ~until:(Sim.sec 2) c.sim;
  checkb "round trip completed after loss lifted" true !replied;
  checkb "retransmissions happened" true (Uam.retransmissions a0 > 0);
  let reqs = spans_named "uam_req" in
  checki "still exactly one request root" 1 (List.length reqs);
  let req = List.hd reqs in
  let retries = spans_named "uam_retx" in
  checkb "retry spans minted" true (retries <> []);
  List.iter
    (fun (s : Span.span) ->
      checkb "retry is not a root" true (s.parent <> None);
      checki "retry stays in the original trace" req.trace_id s.trace_id)
    retries;
  Span.stop ();
  Span.clear ()

let test_aal5_cells_inherit_pdu_ctx () =
  Span.start ();
  let ctx = Span.root "pdu" in
  let cells = Atm.Aal5.segment ~ctx ~vci:5 (Buf.alloc 200) in
  checkb "multi-cell PDU" true (Array.length cells > 1);
  Array.iter
    (fun (cell : Atm.Cell.t) ->
      checkb "cell carries the PDU's context" true (cell.tag.ctx = Some ctx))
    cells;
  let r = Atm.Aal5.Reassembler.create () in
  let out =
    List.filter_map
      (fun c ->
        match Atm.Aal5.Reassembler.push r c with
        | Some (Ok payload) -> Some payload
        | _ -> None)
      (Array.to_list cells)
  in
  checki "PDU reassembled" 1 (List.length out);
  checkb "receiver recovers the context from the EOP cell" true
    (Atm.Aal5.Reassembler.last_ctx r = Some ctx);
  Span.stop ();
  Span.clear ()

let test_disabled_store_stays_empty () =
  Span.stop ();
  Span.clear ();
  let ctx = Span.root "ignored" in
  Span.mark (Some ctx) Span.Doorbell;
  checki "minting while disabled retains nothing" 0 (Span.count ());
  run_roundtrip ();
  checki "a full run while disabled retains nothing" 0 (Span.count ())

let () =
  Alcotest.run "span"
    [
      ( "propagation",
        [
          Alcotest.test_case "round trip is one connected tree" `Quick
            test_roundtrip_one_tree;
          Alcotest.test_case "phases telescope to journey" `Quick
            test_phases_telescope;
          Alcotest.test_case "go-back-N retry is a child span" `Quick
            test_retransmit_is_child_not_root;
          Alcotest.test_case "AAL5 cells inherit the PDU context" `Quick
            test_aal5_cells_inherit_pdu_ctx;
          Alcotest.test_case "disabled store stays empty" `Quick
            test_disabled_store_stays_empty;
        ] );
    ]
