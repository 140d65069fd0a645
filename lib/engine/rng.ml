(* splitmix64. The state lives unboxed in 8 bytes: an [int64] field would
   box a fresh value on every draw. The draw functions are inlined so the
   intermediate [int64]s stay in registers. *)
type t = bytes

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.mul (Int64.of_int (seed + 1)) 0xBF58476D1CE4E5B9L)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] draw t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let int64 t = draw t
let split t = of_state (draw t)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (draw t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then bits t mod bound
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (draw t) 1) (Int64.of_int bound))

let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (draw t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (draw t) 1L = 1L
let bernoulli t ~p = float t 1.0 < p

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u
