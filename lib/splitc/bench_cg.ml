(* Conjugate gradient (§6): solve the 2-D Poisson problem on a k x k grid
   (5-point Laplacian, matrix-free) with plain CG. Rows are block-
   distributed; each matrix-vector product exchanges one boundary row with
   each neighbour (bulk stores) and every iteration runs two global dot
   products (reductions) — the classic latency-plus-bandwidth mix. *)

let id_ghost = 50 (* [0,k) = row from above, [k,2k) = row from below *)

let run ?(k = 192) ?(iters = 40) transports =
  let program ctx =
    let p = Runtime.nprocs ctx in
    let rank = Runtime.rank ctx in
    let rows = k / p in
    let lo = rank * rows in
    let len = rows * k in
    let ghost = Array.make (2 * k) 0. in
    Runtime.register ctx Runtime.Float ~id:id_ghost ghost;
    Runtime.barrier ctx;
    (* b = 1 everywhere; x0 = 0 *)
    let x = Array.make len 0. in
    let r = Array.make len 1. in
    let d = Array.copy r in
    let q = Array.make len 0. in
    let dot a b =
      let s = ref 0. in
      for i = 0 to len - 1 do
        s := !s +. (a.(i) *. b.(i))
      done;
      Runtime.charge ctx ~cycles:(len * 2);
      Runtime.reduce ctx Runtime.Float Runtime.Sum !s
    in
    (* exchange boundary rows of [v] into neighbours' ghost arrays *)
    let exchange v =
      if rank > 0 then
        Runtime.store ctx Runtime.Float ~proc:(rank - 1) ~arr:id_ghost ~pos:k
          (Array.sub v 0 k);
      if rank < p - 1 then
        Runtime.store ctx Runtime.Float ~proc:(rank + 1) ~arr:id_ghost ~pos:0
          (Array.sub v (len - k) k);
      Runtime.all_store_sync ctx
    in
    (* q <- A v (5-point stencil), using the exchanged ghosts *)
    let spmv v =
      exchange v;
      for i = 0 to rows - 1 do
        let gi = lo + i in
        for j = 0 to k - 1 do
          let c = v.((i * k) + j) in
          let up =
            if i > 0 then v.(((i - 1) * k) + j)
            else if gi > 0 then ghost.(j)
            else 0.
          in
          let down =
            if i < rows - 1 then v.(((i + 1) * k) + j)
            else if gi < k - 1 then ghost.(k + j)
            else 0.
          in
          let left = if j > 0 then v.((i * k) + j - 1) else 0. in
          let right = if j < k - 1 then v.((i * k) + j + 1) else 0. in
          q.((i * k) + j) <- (4. *. c) -. up -. down -. left -. right
        done
      done;
      Runtime.charge ctx ~cycles:(len * 8)
    in
    let rr0 = dot r r in
    let rr = ref rr0 in
    let best_rr = ref rr0 in
    for _ = 1 to iters do
      spmv d;
      let dq = dot d q in
      let alpha = !rr /. dq in
      for i = 0 to len - 1 do
        x.(i) <- x.(i) +. (alpha *. d.(i));
        r.(i) <- r.(i) -. (alpha *. q.(i))
      done;
      Runtime.charge ctx ~cycles:(len * 4);
      let rr' = dot r r in
      let beta = rr' /. !rr in
      for i = 0 to len - 1 do
        d.(i) <- r.(i) +. (beta *. d.(i))
      done;
      Runtime.charge ctx ~cycles:(len * 2);
      rr := rr';
      if rr' < !best_rr then best_rr := rr'
    done;
    Runtime.barrier ctx;
    let timing = (Runtime.elapsed_us ctx, Runtime.comm_us ctx) in
    (* correctness: the recurrence residual must match the true residual
       ||b - Ax||^2 recomputed from scratch, and must have decreased *)
    spmv x;
    let true_rr = ref 0. in
    for i = 0 to len - 1 do
      let ri = 1. -. q.(i) in
      true_rr := !true_rr +. (ri *. ri)
    done;
    let true_rr = Runtime.reduce ctx Runtime.Float Runtime.Sum !true_rr in
    (* the 2-norm residual of CG is not monotone on ill-conditioned grids,
       so require (a) real progress at some iteration and (b) the recurrence
       residual to agree with the recomputed true residual *)
    if Sys.getenv_opt "CG_TRACE" <> None && Runtime.rank ctx = 0 then
      Printf.printf "rr0=%g best=%g rr=%g true=%g drift=%g\n%!" rr0 !best_rr
        !rr true_rr (Float.abs (true_rr -. !rr));
    let ok =
      Float.is_finite !rr
      && !best_rr < rr0 /. 2.
      && Float.abs (true_rr -. !rr) <= 1e-6 *. Float.max 1. rr0
    in
    (timing, ok)
  in
  let out = Runtime.run transports program in
  Bench_common.finish ~name:"conjugate-grad"
    ~checked:(Array.map snd out) (Array.map fst out)
