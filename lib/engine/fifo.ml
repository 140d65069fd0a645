(* A growable array kept in insertion order. Removal compacts in place, so
   a steady state of pushes and retirements allocates nothing once the
   array has grown to the live high-water mark. Vacated slots are
   overwritten with [dummy] so retired elements can be collected. *)

type 'a t = { dummy : 'a; mutable buf : 'a array; mutable len : int }

let create ~dummy = { dummy; buf = [||]; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t x =
  if t.len = Array.length t.buf then begin
    let buf = Array.make (max 4 (2 * t.len)) t.dummy in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fifo.get";
  t.buf.(i)

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.buf.(i)
  done;
  !acc

let truncate t n =
  Array.fill t.buf n (t.len - n) t.dummy;
  t.len <- n

let clear t = truncate t 0

let filter_in_place keep t =
  let w = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.buf.(i) in
    if keep x then begin
      if !w < i then t.buf.(!w) <- x;
      incr w
    end
  done;
  if !w < t.len then truncate t !w

