(* Slicing-by-8 over native ints: [tables] holds eight 256-entry tables back
   to back, table [k] advancing the CRC over a byte followed by [k] zero
   bytes, so one step folds 8 input bytes with 8 lookups. The state is the
   reflected 32-bit CRC in the low bits of an [int] (63-bit on the 64-bit
   targets this builds for), which keeps the loop free of boxed [int32]s. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] tbl k i = Array.unsafe_get tables ((k * 256) + i)
let u32 x = Int32.to_int x land 0xFFFFFFFF

(* Advance the inverted CRC state [c] over a range the caller has checked.
   Every table index is masked to a byte (the state stays below 2^32), so
   the unchecked table reads stay in bounds. *)
let update c b ~pos ~len =
  let c = ref c and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let one = u32 (Bytes.get_int32_le b !i) lxor !c in
    let two = u32 (Bytes.get_int32_le b (!i + 4)) in
    c :=
      tbl 7 (one land 0xFF)
      lxor tbl 6 ((one lsr 8) land 0xFF)
      lxor tbl 5 ((one lsr 16) land 0xFF)
      lxor tbl 4 (one lsr 24)
      lxor tbl 3 (two land 0xFF)
      lxor tbl 2 ((two lsr 8) land 0xFF)
      lxor tbl 1 ((two lsr 16) land 0xFF)
      lxor tbl 0 (two lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    c := tbl 0 ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let digest ?(crc = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest: range out of bounds";
  Int32.of_int (update (u32 crc lxor 0xFFFFFFFF) b ~pos ~len lxor 0xFFFFFFFF)

let digest_bytes b = digest b ~pos:0 ~len:(Bytes.length b)

let digest_buf ?(crc = 0l) b =
  let c =
    Engine.Buf.fold_spans b
      ~init:(u32 crc lxor 0xFFFFFFFF)
      ~f:(fun c base ~pos ~len -> update c base ~pos ~len)
  in
  Int32.of_int (c lxor 0xFFFFFFFF)
