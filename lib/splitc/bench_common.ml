type result = {
  name : string;
  total_us : float;
  comm_us : float;
  checked : bool;
}

let pp fmt r =
  Format.fprintf fmt "%-18s total %10.0f us  comp %10.0f us  comm %10.0f us  %s"
    r.name r.total_us (r.total_us -. r.comm_us) r.comm_us
    (if r.checked then "ok" else "FAILED")

let finish ~name ~checked timings =
  let total = Array.fold_left (fun acc (t, _) -> Float.max acc t) 0. timings in
  let comm = Array.fold_left (fun acc (_, c) -> Float.max acc c) 0. timings in
  { name; total_us = total; comm_us = comm; checked = Array.for_all Fun.id checked }

let keys_for ~rank ~n ~seed =
  let rng = Engine.Rng.create ((seed * 7919) + rank) in
  Array.init n (fun _ -> Engine.Rng.int rng (1 lsl 30))

let cycles_per_key_bucket = 25
let cycles_per_key_sort = 12

let charge_local_sort ctx n =
  if n > 1 then begin
    let logn =
      int_of_float (Float.round (Float.log (float_of_int n) /. Float.log 2.))
    in
    Runtime.charge ctx ~cycles:(n * logn * cycles_per_key_sort)
  end
