(* Blocked matrix multiply (§6): matrices of g x g blocks of b x b doubles,
   blocks dealt round-robin over the processors. Each processor computes its
   C blocks, fetching the needed A and B blocks with bulk gets — the
   communication pattern the paper's version overlaps with prefetches.
   Matrix entries are deterministic functions of their global coordinates so
   any entry can be verified independently. *)

let a_entry gi gj = float_of_int (((gi * 31) + (gj * 17)) mod 13 - 6)
let b_entry gi gj = float_of_int (((gi * 23) + (gj * 7)) mod 11 - 5)

(* array ids *)
let id_a = 10
let id_b = 11
let id_c = 12

type params = { g : int; b : int }

let default = { g = 4; b = 64 }

let owner p gb = gb mod p
let slot p gb = gb / p

let blocks_owned p rank g =
  let rec go gb acc =
    if gb >= g * g then List.rev acc
    else go (gb + p) ((gb / g, gb mod g) :: acc)
  in
  go rank []

(* local b x b block multiply accumulating into c *)
let block_mult ~b ablk bblk cblk =
  for i = 0 to b - 1 do
    for k = 0 to b - 1 do
      let a = ablk.((i * b) + k) in
      if a <> 0. then
        for j = 0 to b - 1 do
          cblk.((i * b) + j) <- cblk.((i * b) + j) +. (a *. bblk.((k * b) + j))
        done
    done
  done

let fill_block entry ~g:_ ~b bi bj blk =
  for i = 0 to b - 1 do
    for j = 0 to b - 1 do
      blk.((i * b) + j) <- entry ((bi * b) + i) ((bj * b) + j)
    done
  done

let run ?(params = default) transports =
  let { g; b } = params in
  let bsz = b * b in
  let program ctx =
    let p = Runtime.nprocs ctx in
    let rank = Runtime.rank ctx in
    let mine = blocks_owned p rank g in
    let nmine = List.length mine in
    let a_local = Array.make (max 1 (nmine * bsz)) 0. in
    let b_local = Array.make (max 1 (nmine * bsz)) 0. in
    let c_local = Array.make (max 1 (nmine * bsz)) 0. in
    List.iteri
      (fun s (bi, bj) ->
        let tmp = Array.make bsz 0. in
        fill_block a_entry ~g ~b bi bj tmp;
        Array.blit tmp 0 a_local (s * bsz) bsz;
        fill_block b_entry ~g ~b bi bj tmp;
        Array.blit tmp 0 b_local (s * bsz) bsz)
      mine;
    Runtime.register ctx Runtime.Float ~id:id_a a_local;
    Runtime.register ctx Runtime.Float ~id:id_b b_local;
    Runtime.register ctx Runtime.Float ~id:id_c c_local;
    Runtime.barrier ctx;
    (* compute each owned C block, prefetching the blocks needed by the
       next iteration while multiplying the current ones (as in the paper) *)
    let fetch_pair (bi, bj) k =
      let gb_a = (bi * g) + k and gb_b = (k * g) + bj in
      ( Runtime.get_async ctx Runtime.Float ~proc:(owner p gb_a) ~arr:id_a
          ~pos:(slot p gb_a * bsz) ~len:bsz,
        Runtime.get_async ctx Runtime.Float ~proc:(owner p gb_b) ~arr:id_b
          ~pos:(slot p gb_b * bsz) ~len:bsz )
    in
    let blocks = Array.of_list mine in
    let steps = Array.length blocks * g in
    if steps > 0 then begin
      let coords step = (blocks.(step / g), step mod g) in
      let pending = ref (fetch_pair (fst (coords 0)) (snd (coords 0))) in
      let cblk = ref (Array.make bsz 0.) in
      for step = 0 to steps - 1 do
        let _, k = coords step in
        let pa, pb = !pending in
        let ablk = Runtime.await ctx pa in
        let bblk = Runtime.await ctx pb in
        if step + 1 < steps then begin
          let next_blk, next_k = coords (step + 1) in
          pending := fetch_pair next_blk next_k
        end;
        block_mult ~b ablk bblk !cblk;
        (* ~2 cycles per flop on these machines; 2*b^3 flops per block *)
        Runtime.charge ctx ~cycles:(4 * b * b * b);
        if k = g - 1 then begin
          let s = step / g in
          Array.blit !cblk 0 c_local (s * bsz) bsz;
          cblk := Array.make bsz 0.
        end
      done
    end;
    Runtime.barrier ctx;
    (* verify one entry of each owned block against the closed form *)
    let ok = ref true in
    List.iteri
      (fun s (bi, bj) ->
        let i = bi * b and j = bj * b in
        let expect = ref 0. in
        for k = 0 to (g * b) - 1 do
          expect := !expect +. (a_entry i k *. b_entry k j)
        done;
        if Float.abs (c_local.(s * bsz) -. !expect) > 1e-6 then ok := false)
      mine;
    Runtime.barrier ctx;
    ((Runtime.elapsed_us ctx, Runtime.comm_us ctx), !ok)
  in
  let out = Runtime.run transports program in
  Bench_common.finish ~name:"matrix-multiply"
    ~checked:(Array.map snd out) (Array.map fst out)
