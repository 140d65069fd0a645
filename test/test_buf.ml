(* Property tests for the zero-copy buffer layer: slice algebra, counted
   copies, and the span variants of CRC-32 and the Internet checksum
   agreeing with their contiguous versions over randomized slice shapes.
   Randomness comes from the deterministic Engine.Rng, so every run sees
   the same shapes. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* cut [data] into randomly many independent views and concatenate them
   back: logically equal to [data], physically fragmented. Half the time
   the result is additionally buried in padding and recovered with [sub],
   exercising the offset arithmetic of every span consumer. *)
let random_shape rng data =
  let len = Bytes.length data in
  if len = 0 then Buf.empty
  else begin
    let rec cuts pos acc =
      if pos >= len then List.rev acc
      else
        let n = 1 + Rng.int rng (min 64 (len - pos)) in
        cuts (pos + n) (Buf.of_bytes_sub data ~pos ~len:n :: acc)
    in
    let frag = Buf.concat (cuts 0 []) in
    if Rng.bool rng then begin
      let pad_l = Rng.int rng 16 and pad_r = Rng.int rng 16 in
      Buf.sub
        (Buf.concat [ Buf.alloc pad_l; frag; Buf.alloc pad_r ])
        ~pos:pad_l ~len
    end
    else frag
  end

(* --- slice algebra -------------------------------------------------- *)

let test_shape_preserves_content () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let data = Rng.bytes rng (Rng.int rng 600) in
    let b = random_shape rng data in
    checki "length" (Bytes.length data) (Buf.length b);
    checkb "content" true (Buf.equal_bytes b data)
  done

let test_sub_concat_are_uncounted () =
  let rng = Rng.create 12 in
  let data = Rng.bytes rng 4_096 in
  let before = Buf.copies_total () in
  for _ = 1 to 50 do
    ignore (random_shape rng data)
  done;
  checki "no counted copies from sub/concat" before (Buf.copies_total ())

(* --- span-vs-contiguous equivalence --------------------------------- *)

let test_crc32_span_equivalence () =
  let rng = Rng.create 21 in
  for _ = 1 to 200 do
    let data = Rng.bytes rng (Rng.int rng 2_000) in
    check Alcotest.int32 "crc32 over spans = crc32 contiguous"
      (Atm.Crc32.digest_bytes data)
      (Atm.Crc32.digest_buf (random_shape rng data))
  done

let test_internet_checksum_span_equivalence () =
  let rng = Rng.create 22 in
  for _ = 1 to 200 do
    (* lengths of both parities: spans may split on odd boundaries, which
       is exactly what the parity-tracking fold must get right *)
    let data = Rng.bytes rng (1 + Rng.int rng 1_999) in
    checki "checksum over spans = checksum contiguous"
      (Ipstack.Checksum.compute_bytes data)
      (Ipstack.Checksum.compute_buf (random_shape rng data))
  done

(* --- AAL5 over randomized slice shapes ------------------------------ *)

let test_aal5_roundtrip_over_shapes () =
  let rng = Rng.create 31 in
  for _ = 1 to 100 do
    let data = Rng.bytes rng (Rng.int rng 5_000) in
    let cells = Atm.Aal5.segment ~vci:5 (random_shape rng data) in
    let r = Atm.Aal5.Reassembler.create () in
    let out =
      Array.fold_left
        (fun acc c ->
          match Atm.Aal5.Reassembler.push r c with Some x -> Some x | None -> acc)
        None cells
    in
    match out with
    | Some (Ok got) -> checkb "payload intact" true (Buf.equal_bytes got data)
    | _ -> Alcotest.fail "reassembly failed"
  done

(* --- fused reassembly ------------------------------------------------ *)

(* No span continues its predecessor on the same store. *)
let span_fused b =
  let rec go = function
    | (b1, o1, l1) :: ((b2, o2, _) :: _ as rest) ->
        (not (b1 == b2 && o1 + l1 = o2)) && go rest
    | _ -> true
  in
  go (Buf.spans b)

(* Same spans, store for store. *)
let same_spans a b =
  List.length (Buf.spans a) = List.length (Buf.spans b)
  && List.for_all2
       (fun (b1, o1, l1) (b2, o2, l2) -> b1 == b2 && o1 = o2 && l1 = l2)
       (Buf.spans a) (Buf.spans b)

(* Move some of a PDU's cells to other stores: a cell alone on a fresh
   store, or a run of cells laid out contiguously (at an offset) on one
   fresh store. The rest keep the segmenter's views: contiguous within
   each payload store, straddling where two stores meet. *)
let relayout rng (cells : Atm.Cell.t array) =
  let n = Array.length cells in
  let out = Array.copy cells in
  let i = ref 0 in
  while !i < n do
    let k = min (n - !i) (1 + Rng.int rng 4) in
    (match Rng.int rng 3 with
    | 0 ->
        let pad = Rng.int rng 8 in
        let store = Bytes.make (pad + (k * 48) + Rng.int rng 8) '\000' in
        for j = 0 to k - 1 do
          let c = cells.(!i + j) in
          Buf.copy_into ~layer:"test" c.payload ~dst:store
            ~dst_pos:(pad + (j * 48));
          out.(!i + j) <-
            {
              c with
              payload = Buf.of_bytes_sub store ~pos:(pad + (j * 48)) ~len:48;
            }
        done
    | _ -> ());
    i := !i + k
  done;
  out

(* One PDU's cells on [vci] and the outcome its EOP must report. *)
type pdu = { cells : Atm.Cell.t array; want : (bytes, Atm.Aal5.error) result }

(* A CS-PDU whose trailer claims a length the PDU cannot hold, with a CRC
   that matches, so only the length check rejects it. *)
let bad_length_pdu rng ~vci =
  let data = Rng.bytes rng (Rng.int rng 300) in
  let len = Bytes.length data in
  let total = Atm.Aal5.cells_for len * 48 in
  let b = Bytes.make total '\000' in
  Bytes.blit data 0 b 0 len;
  Bytes.set_uint16_be b (total - 6) total;
  Bytes.set_int32_be b (total - 4) (Atm.Crc32.digest b ~pos:0 ~len:(total - 4));
  let n = total / 48 in
  Array.init n (fun i ->
      Atm.Cell.make ~vci ~eop:(i = n - 1)
        (Buf.of_bytes_sub b ~pos:(i * 48) ~len:48))

let random_pdu rng ~vci =
  match Rng.int rng 10 with
  | 0 ->
      {
        cells = bad_length_pdu rng ~vci;
        want = Error Atm.Aal5.Length_mismatch;
      }
  | k ->
      let data = Rng.bytes rng (Rng.int rng 5_000) in
      let payload =
        match Rng.int rng 3 with
        | 0 -> random_shape rng data
        | 1 -> Buf.copy ~layer:"test" (Buf.of_bytes data)
        | _ -> Buf.of_bytes data
      in
      let cells = relayout rng (Atm.Aal5.segment ~vci payload) in
      if k = 1 then begin
        (* one flipped byte, on a fresh store: the CRC must catch it *)
        let i = Rng.int rng (Array.length cells) in
        let c = cells.(i) in
        let b = Buf.to_bytes ~layer:"test" c.payload in
        let at = Rng.int rng 48 in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x5a));
        cells.(i) <- { c with payload = Buf.of_bytes b };
        { cells; want = Error Atm.Aal5.Crc_mismatch }
      end
      else { cells; want = Ok data }

(* Interleave a few VCIs' PDUs on one wire, feed each cell to its VCI's
   reassembler, and check every EOP: a good PDU comes back content-equal
   to the concatenation of its cells, in exactly the spans [Buf.concat]
   fuses them into, with no two spans left that continue each other; a
   bad one is discarded for its reason. Now and then a VCI first
   overflows the reassembler ([Too_long]), which must leave it clean for
   the PDUs that follow. *)
let prop_fused_reassembly =
  QCheck.Test.make ~name:"reassembly fuses spans, content = concat of cells"
    ~count:150
    (QCheck.make
       ~print:(Printf.sprintf "seed %d")
       QCheck.Gen.(int_bound 0xFFFFFF))
    (fun seed ->
      let rng = Rng.create seed in
      let nvci = 1 + Rng.int rng 3 in
      let queues =
        Array.init nvci (fun vci ->
            let pdus =
              List.init (1 + Rng.int rng 3) (fun _ -> random_pdu rng ~vci)
            in
            List.concat_map
              (fun p ->
                Array.to_list
                  (Array.mapi
                     (fun i c ->
                       let eop = i = Array.length p.cells - 1 in
                       (c, if eop then Some p else None))
                     p.cells))
              pdus)
      in
      let rs = Array.init nvci (fun _ -> Atm.Aal5.Reassembler.create ()) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      Array.iteri
        (fun vci r ->
          if Rng.int rng 8 = 0 then begin
            let c =
              {
                (Atm.Aal5.segment ~vci (Buf.alloc 100)).(0) with
                Atm.Cell.eop = false;
              }
            in
            let over = ref false in
            for _ = 1 to Atm.Aal5.cells_for Atm.Aal5.max_payload + 1 do
              match Atm.Aal5.Reassembler.push r c with
              | Some (Error Atm.Aal5.Too_long) -> over := true
              | Some _ -> expect false
              | None -> ()
            done;
            expect !over
          end)
        rs;
      let pending () = Array.exists (fun q -> q <> []) queues in
      while pending () do
        let vci = Rng.int rng nvci in
        match queues.(vci) with
        | [] -> ()
        | (c, eop) :: rest -> (
            queues.(vci) <- rest;
            match (Atm.Aal5.Reassembler.push rs.(vci) c, eop) with
            | None, None -> ()
            | Some (Ok got), Some { cells; want = Ok data } ->
                let views =
                  Array.to_list
                    (Array.map (fun (c : Atm.Cell.t) -> c.payload) cells)
                in
                let concat =
                  Buf.sub (Buf.concat views) ~pos:0 ~len:(Bytes.length data)
                in
                expect (Buf.equal_bytes got data);
                expect (Buf.equal got concat);
                expect (same_spans got concat);
                expect (span_fused got)
            | Some (Error e), Some { want = Error e'; _ } -> expect (e = e')
            | _ -> expect false)
      done;
      !ok)

(* --- counted copies ------------------------------------------------- *)

let test_copy_into_counts () =
  let rng = Rng.create 41 in
  let data = Rng.bytes rng 333 in
  let b = random_shape rng data in
  let layer = "test_buf" in
  let before_copies =
    Option.value ~default:0
      (Metrics.counter_value "buf_copies_total" [ ("layer", layer) ])
  in
  let dst = Bytes.create 333 in
  Buf.copy_into ~layer b ~dst ~dst_pos:0;
  check Alcotest.bytes "copy_into materializes the slice" data dst;
  checki "one counted copy" (before_copies + 1)
    (Option.value ~default:0
       (Metrics.counter_value "buf_copies_total" [ ("layer", layer) ]));
  checkb "bytes counted" true
    (Option.value ~default:0
       (Metrics.counter_value "buf_copy_bytes_total" [ ("layer", layer) ])
    >= 333)

(* A snapshot holds the source's bytes in stores of 2016 B (the last one
   shorter), one counted copy, and no longer aliases the source. *)
let test_copy_snapshot_stores () =
  let rng = Rng.create 42 in
  let layer = "test_buf" in
  let copies () =
    Option.value ~default:0
      (Metrics.counter_value "buf_copies_total" [ ("layer", layer) ])
  in
  for _ = 1 to 100 do
    let data = Rng.bytes rng (Rng.int rng 6_000) in
    let before = copies () in
    let snap = Buf.copy ~layer (random_shape rng data) in
    checki "one counted copy" (before + 1) (copies ());
    checkb "content" true (Buf.equal_bytes snap data);
    let lens = List.map (fun (_, _, len) -> len) (Buf.spans snap) in
    let n = List.length lens in
    checkb "2016-byte stores, last one shorter" true
      (List.for_all (( = ) 2016) (List.filteri (fun i _ -> i < n - 1) lens)
      && List.for_all (fun l -> l > 0 && l <= 2016) lens);
    if Bytes.length data > 0 then begin
      let expect = Bytes.copy data in
      Bytes.fill data 0 (Bytes.length data) '\xff';
      checkb "no aliasing" true (Buf.equal_bytes snap expect)
    end
  done

let () =
  Alcotest.run "buf"
    [
      ( "slices",
        [
          Alcotest.test_case "random shapes preserve content" `Quick
            test_shape_preserves_content;
          Alcotest.test_case "sub/concat are zero-copy" `Quick
            test_sub_concat_are_uncounted;
          Alcotest.test_case "copy_into is counted" `Quick test_copy_into_counts;
          Alcotest.test_case "copy snapshots in 2016-byte stores" `Quick
            test_copy_snapshot_stores;
        ] );
      ( "span-equivalence",
        [
          Alcotest.test_case "crc32" `Quick test_crc32_span_equivalence;
          Alcotest.test_case "internet checksum" `Quick
            test_internet_checksum_span_equivalence;
          Alcotest.test_case "aal5 roundtrip over shapes" `Quick
            test_aal5_roundtrip_over_shapes;
          QCheck_alcotest.to_alcotest prop_fused_reassembly;
        ] );
    ]
