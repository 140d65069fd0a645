(* Radix sort (§6): [passes] rounds over [digit_bits]-bit digits. Each pass
   histograms the local keys, computes the global rank of every bucket slot
   (a parallel scan done on processor 0), then permutes each key to its
   destination position.

   The small-message variant sends one (position, key) pair per message —
   two values, as the paper's small-message radix sort packs. The bulk
   variant groups pairs by destination processor and sends one bulk store
   per destination per pass. *)

let id_out = 30 (* destination array for the current pass *)
let id_hist = 31 (* rank 0: p x buckets histogram matrix *)
let id_base = 32 (* per-processor bucket start offsets *)
let id_counts = 33 (* bulk variant: incoming pair counts per sender *)
let id_offsets = 34
let id_pairs = 35 (* bulk variant: incoming (pos, key) pairs *)
let buf_pairs = 36 (* small variant: appended (pos, key) pairs *)

type variant = Small | Bulk

let variant_name = function
  | Small -> "radix-sort-small"
  | Bulk -> "radix-sort-bulk"

let run ?(n = 65_536) ?(digit_bits = 8) ?(passes = 2) ~variant transports =
  let buckets = 1 lsl digit_bits in
  let program ctx =
    let p = Runtime.nprocs ctx in
    let rank = Runtime.rank ctx in
    let n_local = n / p in
    (* keys bounded by the digits the passes cover, so the sort is total *)
    let key_bound = 1 lsl (digit_bits * passes) in
    let keys =
      Array.map
        (fun k -> k land (key_bound - 1))
        (Bench_common.keys_for ~rank ~n:n_local ~seed:7)
    in
    let checksum_in = (Array.fold_left ( + ) 0 keys, n_local) in
    let out = Array.make n_local 0 in
    let hist =
      Array.make (if rank = 0 then p * buckets else 1) 0
    in
    let base = Array.make buckets 0 in
    let incounts = Array.make p 0 in
    let inoffsets = Array.make p 0 in
    let inpairs = Array.make (2 * n_local) 0 in
    Runtime.register ctx Runtime.Int ~id:id_out out;
    Runtime.register ctx Runtime.Int ~id:id_hist hist;
    Runtime.register ctx Runtime.Int ~id:id_base base;
    Runtime.register ctx Runtime.Int ~id:id_counts incounts;
    Runtime.register ctx Runtime.Int ~id:id_offsets inoffsets;
    Runtime.register ctx Runtime.Int ~id:id_pairs inpairs;
    Runtime.register_append_buffer ctx ~id:buf_pairs;
    Runtime.barrier ctx;
    let current = ref keys in
    for pass = 0 to passes - 1 do
      let shift = pass * digit_bits in
      let digit k = (k lsr shift) land (buckets - 1) in
      (* local histogram *)
      let counts = Array.make buckets 0 in
      Array.iter
        (fun k ->
          counts.(digit k) <- counts.(digit k) + 1)
        !current;
      Runtime.charge ctx ~cycles:(n_local * 4);
      (* gather histograms on rank 0 *)
      Runtime.store ctx Runtime.Int ~proc:0 ~arr:id_hist ~pos:(rank * buckets)
        counts;
      Runtime.all_store_sync ctx;
      (* rank 0 scans: start offset of (proc r, bucket b) in the global
         ordering = sum of all lower buckets + same-bucket lower ranks *)
      if rank = 0 then begin
        let bucket_tot = Array.make buckets 0 in
        for b = 0 to buckets - 1 do
          for r = 0 to p - 1 do
            bucket_tot.(b) <- bucket_tot.(b) + hist.((r * buckets) + b)
          done
        done;
        let start = Array.make buckets 0 in
        for b = 1 to buckets - 1 do
          start.(b) <- start.(b - 1) + bucket_tot.(b - 1)
        done;
        Runtime.charge ctx ~cycles:(p * buckets * 4);
        for r = 0 to p - 1 do
          let mine = Array.make buckets 0 in
          for b = 0 to buckets - 1 do
            mine.(b) <- start.(b);
            start.(b) <- start.(b) + hist.((r * buckets) + b)
          done;
          Runtime.store ctx Runtime.Int ~proc:r ~arr:id_base ~pos:0 mine
        done
      end;
      Runtime.all_store_sync ctx;
      (* permutation: each key goes to global position base[digit]++ *)
      (match variant with
      | Small ->
          Array.iter
            (fun k ->
              Runtime.charge ctx ~cycles:Bench_common.cycles_per_key_bucket;
              let d = digit k in
              let gpos = base.(d) in
              base.(d) <- gpos + 1;
              let dproc = gpos / n_local and didx = gpos mod n_local in
              Runtime.store_pair ctx ~proc:dproc ~buf:buf_pairs didx k)
            !current;
          Runtime.all_store_sync ctx;
          let pairs = Runtime.append_buffer_contents ctx ~id:buf_pairs in
          let i = ref 0 in
          while !i + 1 < Array.length pairs do
            out.(pairs.(!i)) <- pairs.(!i + 1);
            i := !i + 2
          done;
          (* reset the append buffer for the next pass *)
          Runtime.register_append_buffer ctx ~id:buf_pairs
      | Bulk ->
          let grouped = Array.make p [] in
          Array.iter
            (fun k ->
              Runtime.charge ctx ~cycles:Bench_common.cycles_per_key_bucket;
              let d = digit k in
              let gpos = base.(d) in
              base.(d) <- gpos + 1;
              let dproc = gpos / n_local and didx = gpos mod n_local in
              grouped.(dproc) <- (didx, k) :: grouped.(dproc))
            !current;
          for d = 0 to p - 1 do
            Runtime.write ctx Runtime.Int ~proc:d ~arr:id_counts ~idx:rank
              (List.length grouped.(d))
          done;
          Runtime.barrier ctx;
          let off = ref 0 in
          for s = 0 to p - 1 do
            inoffsets.(s) <- !off;
            off := !off + incounts.(s)
          done;
          Runtime.barrier ctx;
          for d = 0 to p - 1 do
            match grouped.(d) with
            | [] -> ()
            | l ->
                let flat =
                  l |> List.rev
                  |> List.concat_map (fun (i, k) -> [ i; k ])
                  |> Array.of_list
                in
                let pos =
                  2
                  * Runtime.read ctx Runtime.Int ~proc:d ~arr:id_offsets
                      ~idx:rank
                in
                Runtime.store ctx Runtime.Int ~proc:d ~arr:id_pairs ~pos flat
          done;
          Runtime.all_store_sync ctx;
          let total_in = Array.fold_left ( + ) 0 incounts in
          for j = 0 to total_in - 1 do
            out.(inpairs.(2 * j)) <- inpairs.((2 * j) + 1)
          done;
          Array.fill incounts 0 p 0);
      Runtime.charge ctx ~cycles:(n_local * 4);
      current := Array.copy out;
      Runtime.barrier ctx
    done;
    let timing = (Runtime.elapsed_us ctx, Runtime.comm_us ctx) in
    let ok = Bench_sample_sort.verify ctx !current checksum_in in
    (timing, ok)
  in
  let out = Runtime.run transports program in
  Bench_common.finish ~name:(variant_name variant)
    ~checked:(Array.map snd out) (Array.map fst out)
