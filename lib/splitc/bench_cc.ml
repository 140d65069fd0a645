(* Connected components (§6): label propagation over a distributed random
   graph. Vertices are block-distributed; every vertex starts labelled with
   its own id and repeatedly adopts the minimum label among its neighbours.
   Local edges relax locally to a fixpoint each round; cross edges push
   labels to the owner with small messages ((vertex, label) pairs — the
   same two-values-per-message traffic as the small-message sorts). Rounds
   proceed until a global reduction reports no change.

   The graph is deterministic from the seed, so the result is verified
   against a sequential union-find on processor 0 for moderate sizes. *)

let buf_updates = 40

let gen_edges ~n ~degree ~seed =
  let rng = Engine.Rng.create seed in
  let m = n * degree / 2 in
  Array.init m (fun _ ->
      let u = Engine.Rng.int rng n in
      let v = Engine.Rng.int rng n in
      (u, v))

(* sequential union-find for verification *)
let serial_components ~n edges =
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  Array.iter
    (fun (u, v) ->
      let ru = find u and rv = find v in
      if ru <> rv then parent.(max ru rv) <- min ru rv)
    edges;
  Array.init n (fun v -> find v)

let run ?(n = 16_384) ?(degree = 4) transports =
  let edges = gen_edges ~n ~degree ~seed:99 in
  let program ctx =
    let p = Runtime.nprocs ctx in
    let rank = Runtime.rank ctx in
    let n_local = n / p in
    let lo = rank * n_local in
    let owner v = min (p - 1) (v / n_local) in
    (* edges with an endpoint here (edges fully local appear once) *)
    let my_edges =
      Array.to_list edges
      |> List.filter (fun (u, v) -> owner u = rank || owner v = rank)
    in
    let labels = Array.init n_local (fun i -> lo + i) in
    Runtime.register_append_buffer ctx ~id:buf_updates;
    Runtime.barrier ctx;
    let read_label v =
      if owner v = rank then labels.(v - (rank * n_local)) else -1
    in
    let continue = ref true in
    let rounds = ref 0 in
    while !continue do
      incr rounds;
      let changed = ref 0 in
      (* local relaxation to a fixpoint *)
      let local_pass () =
        let any = ref false in
        List.iter
          (fun (u, v) ->
            if owner u = rank && owner v = rank then begin
              let lu = read_label u and lv = read_label v in
              Runtime.charge ctx ~cycles:12;
              if lu < lv then begin
                labels.(v - lo) <- lu;
                any := true
              end
              else if lv < lu then begin
                labels.(u - lo) <- lv;
                any := true
              end
            end)
          my_edges;
        !any
      in
      while local_pass () do
        changed := !changed + 1
      done;
      (* push labels across cut edges to the remote owner *)
      List.iter
        (fun (u, v) ->
          let push ~local ~remote =
            let l = read_label local in
            Runtime.charge ctx ~cycles:8;
            Runtime.store_pair ctx ~proc:(owner remote) ~buf:buf_updates
              (remote - (owner remote * n_local))
              l
          in
          if owner u = rank && owner v <> rank then push ~local:u ~remote:v
          else if owner v = rank && owner u <> rank then push ~local:v ~remote:u)
        my_edges;
      Runtime.all_store_sync ctx;
      (* apply incoming (vertex, label) minima *)
      let updates = Runtime.append_buffer_contents ctx ~id:buf_updates in
      Runtime.register_append_buffer ctx ~id:buf_updates;
      let i = ref 0 in
      while !i + 1 < Array.length updates do
        let v = updates.(!i) and l = updates.(!i + 1) in
        Runtime.charge ctx ~cycles:6;
        if l < labels.(v) then begin
          labels.(v) <- l;
          changed := !changed + 1
        end;
        i := !i + 2
      done;
      let total_changed = Runtime.reduce ctx Runtime.Int Runtime.Sum !changed in
      continue := total_changed > 0
    done;
    Runtime.barrier ctx;
    let timing = (Runtime.elapsed_us ctx, Runtime.comm_us ctx) in
    (* verification: gather labels on 0, compare to sequential union-find *)
    let id_all = 41 in
    let all = Array.make (if rank = 0 then n else 1) 0 in
    Runtime.register ctx Runtime.Int ~id:id_all all;
    Runtime.barrier ctx;
    Runtime.store ctx Runtime.Int ~proc:0 ~arr:id_all ~pos:lo labels;
    Runtime.all_store_sync ctx;
    let ok =
      if rank <> 0 then true
      else begin
        let expect = serial_components ~n edges in
        (* labels must induce the same partition: same label <-> same comp *)
        let map = Hashtbl.create 64 in
        let ok = ref true in
        for v = 0 to n - 1 do
          match Hashtbl.find_opt map expect.(v) with
          | None -> Hashtbl.add map expect.(v) all.(v)
          | Some l -> if l <> all.(v) then ok := false
        done;
        (* and distinct components must have distinct labels *)
        let seen = Hashtbl.create 64 in
        Hashtbl.iter
          (fun _ l ->
            if Hashtbl.mem seen l then ok := false else Hashtbl.add seen l ())
          map;
        !ok
      end
    in
    (timing, ok)
  in
  let out = Runtime.run transports program in
  Bench_common.finish ~name:"connected-comps"
    ~checked:(Array.map snd out) (Array.map fst out)
