(* Sample sort (§6): sample the keys, pick p-1 splitters, permute every key
   to its destination bucket, then sort locally.

   The small-message variant packs two keys per message during the
   permutation phase — the paper's version optimized for small messages
   (an odd leftover travels with a -1 sentinel; keys are 30-bit and
   non-negative). The bulk variant presorts the local keys so each
   processor sends exactly one bulk store to every other processor. *)

let id_result = 20
let id_samples = 21
let id_counts = 22 (* incoming key counts, indexed by sender *)
let id_offsets = 23 (* receive offsets per sender *)
let id_boundary = 29
let buf_recv = 24

let oversample = 16

type variant = Small | Bulk

let bucket splitters key =
  let p = Array.length splitters + 1 in
  let lo = ref 0 and hi = ref (p - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key < splitters.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let choose_splitters samples p =
  Array.sort compare samples;
  let s = Array.length samples / p in
  Array.init (p - 1) (fun i -> samples.((i + 1) * s))

(* sortedness, cross-processor boundary order, and key-population checks *)
let verify ctx keys (sum_in_local, n_in_local) =
  let sorted = ref true in
  for i = 0 to Array.length keys - 2 do
    if keys.(i) > keys.(i + 1) then sorted := false
  done;
  let my_min = if Array.length keys = 0 then max_int else keys.(0) in
  let my_max =
    if Array.length keys = 0 then min_int else keys.(Array.length keys - 1)
  in
  let boundary = Array.make (2 * Runtime.nprocs ctx) 0 in
  Runtime.register ctx Runtime.Int ~id:id_boundary boundary;
  Runtime.barrier ctx;
  Runtime.write ctx Runtime.Int ~proc:0 ~arr:id_boundary
    ~idx:(2 * Runtime.rank ctx)
    my_min;
  Runtime.write ctx Runtime.Int ~proc:0 ~arr:id_boundary
    ~idx:((2 * Runtime.rank ctx) + 1)
    my_max;
  Runtime.barrier ctx;
  let boundaries_ok =
    if Runtime.rank ctx <> 0 then true
    else begin
      let ok = ref true in
      let prev_max = ref min_int in
      for r = 0 to Runtime.nprocs ctx - 1 do
        let mn = boundary.(2 * r) and mx = boundary.((2 * r) + 1) in
        if mn <> max_int then begin
          if mn < !prev_max then ok := false;
          prev_max := mx
        end
      done;
      !ok
    end
  in
  let sum_out =
    Runtime.reduce ctx Runtime.Int Runtime.Sum (Array.fold_left ( + ) 0 keys)
  in
  let n_out = Runtime.reduce ctx Runtime.Int Runtime.Sum (Array.length keys) in
  let sum_in = Runtime.reduce ctx Runtime.Int Runtime.Sum sum_in_local in
  let n_in = Runtime.reduce ctx Runtime.Int Runtime.Sum n_in_local in
  !sorted && boundaries_ok && sum_out = sum_in && n_out = n_in

let variant_name = function
  | Small -> "sample-sort-small"
  | Bulk -> "sample-sort-bulk"

let run ?(n = 65_536) ~variant transports =
  let program ctx =
    let p = Runtime.nprocs ctx in
    let rank = Runtime.rank ctx in
    let n_local = n / p in
    let capacity = (3 * n_local) + 64 in
    let keys = Bench_common.keys_for ~rank ~n:n_local ~seed:42 in
    let checksum_in = (Array.fold_left ( + ) 0 keys, n_local) in
    Runtime.register ctx Runtime.Int ~id:id_samples
      (Array.make (p * oversample) 0);
    Runtime.register_append_buffer ctx ~id:buf_recv;
    let result = Array.make capacity 0 in
    let incounts = Array.make p 0 in
    let inoffsets = Array.make p 0 in
    Runtime.register ctx Runtime.Int ~id:id_result result;
    Runtime.register ctx Runtime.Int ~id:id_counts incounts;
    Runtime.register ctx Runtime.Int ~id:id_offsets inoffsets;
    Runtime.barrier ctx;
    (* phase 1: sample, splitters, broadcast *)
    let rng = Engine.Rng.create (1234 + rank) in
    let my_samples =
      Array.init oversample (fun _ -> keys.(Engine.Rng.int rng (max 1 n_local)))
    in
    Runtime.store ctx Runtime.Int ~proc:0 ~arr:id_samples
      ~pos:(rank * oversample)
      my_samples;
    Runtime.all_store_sync ctx;
    let splitters =
      if rank = 0 then begin
        Bench_common.charge_local_sort ctx (p * oversample);
        let samples = Runtime.get ctx Runtime.Int ~proc:0 ~arr:id_samples ~pos:0
            ~len:(p * oversample) in
        Runtime.broadcast_ints ctx ~root:0 (choose_splitters samples p)
      end
      else Runtime.broadcast_ints ctx ~root:0 (Array.make (max 1 (p - 1)) 0)
    in
    (* phase 2: permutation *)
    let local_keys =
      match variant with
      | Small ->
          let held = Array.make p (-1) in
          Array.iter
            (fun key ->
              Runtime.charge ctx ~cycles:Bench_common.cycles_per_key_bucket;
              let d = bucket splitters key in
              if held.(d) < 0 then held.(d) <- key
              else begin
                Runtime.store_pair ctx ~proc:d ~buf:buf_recv held.(d) key;
                held.(d) <- -1
              end)
            keys;
          Array.iteri
            (fun d k ->
              if k >= 0 then Runtime.store_pair ctx ~proc:d ~buf:buf_recv k (-1))
            held;
          Runtime.all_store_sync ctx;
          let raw = Runtime.append_buffer_contents ctx ~id:buf_recv in
          let kept = Array.to_list raw |> List.filter (fun k -> k >= 0) in
          Array.of_list kept
      | Bulk ->
          let buckets = Array.make p [] in
          Array.iter
            (fun key ->
              Runtime.charge ctx ~cycles:Bench_common.cycles_per_key_bucket;
              let d = bucket splitters key in
              buckets.(d) <- key :: buckets.(d))
            keys;
          let outb = Array.map Array.of_list buckets in
          for d = 0 to p - 1 do
            Runtime.write ctx Runtime.Int ~proc:d ~arr:id_counts ~idx:rank
              (Array.length outb.(d))
          done;
          Runtime.barrier ctx;
          let off = ref 0 in
          for s = 0 to p - 1 do
            inoffsets.(s) <- !off;
            off := !off + incounts.(s)
          done;
          let my_incoming = !off in
          Runtime.barrier ctx;
          for d = 0 to p - 1 do
            if Array.length outb.(d) > 0 then begin
              let pos =
                Runtime.read ctx Runtime.Int ~proc:d ~arr:id_offsets ~idx:rank
              in
              Runtime.store ctx Runtime.Int ~proc:d ~arr:id_result ~pos outb.(d)
            end
          done;
          Runtime.all_store_sync ctx;
          Array.sub result 0 my_incoming
    in
    (* phase 3: local sort *)
    Array.sort compare local_keys;
    Bench_common.charge_local_sort ctx (Array.length local_keys);
    Runtime.barrier ctx;
    let timing = (Runtime.elapsed_us ctx, Runtime.comm_us ctx) in
    let ok = verify ctx local_keys checksum_in in
    (timing, ok)
  in
  let out = Runtime.run transports program in
  Bench_common.finish ~name:(variant_name variant)
    ~checked:(Array.map snd out) (Array.map fst out)
