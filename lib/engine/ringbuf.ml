(* A growable circular buffer. [head] is the oldest element's slot; the
   array doubles when full, so a steady state of pushes and pops
   allocates nothing once it has grown to the live high-water mark.
   Vacated slots are overwritten with [dummy] so popped elements can be
   collected. *)

type 'a t = {
  dummy : 'a;
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
}

let create ~dummy = { dummy; buf = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (max 8 (2 * cap)) t.dummy in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- buf;
  t.head <- 0

(* Indices below are in bounds by construction: [head < cap] and
   [len <= cap] always hold. *)
let push t x =
  if t.len = Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  let i = t.head + t.len in
  Array.unsafe_set t.buf (if i >= cap then i - cap else i) x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ringbuf.pop: empty";
  let h = t.head in
  let x = Array.unsafe_get t.buf h in
  Array.unsafe_set t.buf h t.dummy;
  t.head <- (if h + 1 = Array.length t.buf then 0 else h + 1);
  t.len <- t.len - 1;
  x
