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
      List.fold_left
        (fun acc c ->
          match Atm.Aal5.Reassembler.push r c with Some x -> Some x | None -> acc)
        None cells
    in
    match out with
    | Some (Ok got) -> checkb "payload intact" true (Buf.equal_bytes got data)
    | _ -> Alcotest.fail "reassembly failed"
  done

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
        ] );
    ]
