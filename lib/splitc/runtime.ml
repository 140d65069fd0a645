open Engine

type _ elt = Int : int elt | Float : float elt
type op = Sum | Min | Max

let op_code = function Sum -> 0 | Min -> 1 | Max -> 2
let op_of_code = function 0 -> Sum | 1 -> Min | _ -> Max

(* reserved runtime handler ids (applications use 1-99); the per-kind ids
   live in each kind's record *)
let h_write_ack = 203
let h_store_pair = 204
let h_barrier_arrive = 211
let h_barrier_release = 212
let h_bcast = 217

(* One element kind: its 8-byte wire codec, its reduction arithmetic, its
   handler ids and, per processor, its array table and reduction state. *)
type 'a kind = {
  what : string;
  zero : 'a;
  to_bits : 'a -> int64;
  of_bits : int64 -> 'a;
  apply : op -> 'a -> 'a -> 'a;
  h_read : int;
  h_read_reply : int;
  h_write : int;
  h_store : int;
  h_get : int;
  h_get_reply : int;
  h_reduce : int;
  h_reduce_result : int;
  arrays : (int, 'a array) Hashtbl.t;
  reduce_acc : (int, int * 'a) Hashtbl.t;
      (* rank 0: epoch -> contributions so far and their fold *)
  reduce_results : (int, 'a) Hashtbl.t; (* others: epoch -> result *)
}

let int_kind () =
  {
    what = "int";
    zero = 0;
    to_bits = Int64.of_int;
    of_bits = Int64.to_int;
    apply =
      (fun op a b ->
        match op with Sum -> a + b | Min -> min a b | Max -> max a b);
    h_read = 200;
    h_read_reply = 201;
    h_write = 202;
    h_store = 205;
    h_get = 207;
    h_get_reply = 208;
    h_reduce = 213;
    h_reduce_result = 214;
    arrays = Hashtbl.create 8;
    reduce_acc = Hashtbl.create 4;
    reduce_results = Hashtbl.create 4;
  }

let float_kind () =
  {
    what = "float";
    zero = 0.;
    to_bits = Int64.bits_of_float;
    of_bits = Int64.float_of_bits;
    apply =
      (fun op a b ->
        match op with
        | Sum -> a +. b
        | Min -> Float.min a b
        | Max -> Float.max a b);
    h_read = 218;
    h_read_reply = 219;
    h_write = 220;
    h_store = 206;
    h_get = 209;
    h_get_reply = 210;
    h_reduce = 215;
    h_reduce_result = 216;
    arrays = Hashtbl.create 8;
    reduce_acc = Hashtbl.create 4;
    reduce_results = Hashtbl.create 4;
  }

(* growable int vector for append buffers *)
module Intvec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 0; len = 0 }

  let push t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let contents t = Array.sub t.data 0 t.len
end

type ctx = {
  tp : Transport.t;
  mutable start_ns : Sim.time;
  mutable comm_ns : int;
  ints : int kind;
  floats : float kind;
  append_bufs : (int, Intvec.t) Hashtbl.t;
  pending : (int, int array -> Buf.t -> unit) Hashtbl.t;
      (* request id -> what its replies do (reply args, payload) *)
  mutable next_req : int;
  (* barrier *)
  mutable barrier_epoch : int;
  barrier_arrivals : (int, int ref) Hashtbl.t; (* rank 0 only *)
  mutable barrier_released : int;
  mutable reduce_epoch : int; (* the kinds keep the accumulators *)
  (* broadcast *)
  mutable bcast_epoch : int;
  bcast_slots : (int, int array) Hashtbl.t;
}

let kind : type a. ctx -> a elt -> a kind =
 fun ctx -> function Int -> ctx.ints | Float -> ctx.floats

let rank ctx = ctx.tp.Transport.rank
let nprocs ctx = ctx.tp.Transport.nodes
let sim ctx = ctx.tp.Transport.sim

let elapsed_us ctx = Sim.to_us (Sim.now (sim ctx) - ctx.start_ns)
let comm_us ctx = Sim.to_us ctx.comm_ns
let charge ctx ~cycles = ctx.tp.Transport.charge_cycles cycles

(* wrap a blocking communication operation with comm-time accounting *)
let timed ctx f =
  let t0 = Sim.now (sim ctx) in
  let r = f () in
  ctx.comm_ns <- ctx.comm_ns + (Sim.now (sim ctx) - t0);
  r

let fresh_req ctx =
  let id = ctx.next_req in
  ctx.next_req <- (ctx.next_req + 1) land 0xFFFFF;
  id

(* --- payload encodings ------------------------------------------------ *)

(* Encoders build the payload in a fresh store and hand out a slice of it;
   decoders materialize the received slice once (the copy into the
   application's data structure, counted under the splitc layer). *)
let encode k a pos len =
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (k.to_bits a.(pos + i))
  done;
  Buf.of_bytes b

let decode k p =
  let b = Buf.to_bytes ~layer:"splitc" p in
  Array.init (Bytes.length b / 8) (fun i ->
      k.of_bits (Bytes.get_int64_le b (8 * i)))

(* single values travel as one-element arrays *)
let encode_one k v = encode k [| v |] 0 1
let decode_one k p = (decode k p).(0)

(* --- array registry --------------------------------------------------- *)

let register ctx elt ~id a =
  let k = kind ctx elt in
  if Hashtbl.mem k.arrays id then
    Fmt.invalid_arg "Splitc: %s array %d already registered" k.what id;
  Hashtbl.replace k.arrays id a

let array ctx k id =
  match Hashtbl.find_opt k.arrays id with
  | Some a -> a
  | None ->
      Fmt.failwith "Splitc: unknown %s array %d on proc %d" k.what id (rank ctx)

let register_append_buffer ctx ~id =
  Hashtbl.replace ctx.append_bufs id (Intvec.create ())

let append_buf ctx id =
  match Hashtbl.find_opt ctx.append_bufs id with
  | Some v -> v
  | None -> Fmt.failwith "Splitc: unknown append buffer %d" id

let append_buffer_contents ctx ~id = Intvec.contents (append_buf ctx id)

(* --- handler registration --------------------------------------------- *)

let need_reply = function
  | Some r -> (r : Transport.reply_fn)
  | None -> failwith "Splitc: request handler invoked without reply capability"

(* every reply (read value, get chunk, write ack) carries its request id
   first and runs the continuation posted under it *)
let dispatch_reply ctx ~src:_ ~reply:_ ~args ~payload =
  match Hashtbl.find_opt ctx.pending args.(0) with
  | Some k -> k args payload
  | None -> Fmt.failwith "Splitc: stray reply to request %d" args.(0)

let install_kind ctx k =
  let reg = ctx.tp.Transport.register in
  reg k.h_read (fun ~src:_ ~reply ~args ~payload:_ ->
      let a = array ctx k args.(0) in
      (need_reply reply) ~handler:k.h_read_reply ~args:[| args.(2) |]
        ~payload:(encode_one k a.(args.(1)))
        ());
  reg k.h_write (fun ~src:_ ~reply ~args ~payload ->
      let a = array ctx k args.(0) in
      a.(args.(1)) <- decode_one k payload;
      (need_reply reply) ~handler:h_write_ack ~args:[| args.(2) |] ());
  reg k.h_store (fun ~src:_ ~reply:_ ~args ~payload ->
      let a = array ctx k args.(0) in
      let vals = decode k payload in
      Array.blit vals 0 a args.(1) (Array.length vals));
  reg k.h_get (fun ~src:_ ~reply ~args ~payload:_ ->
      let arr = args.(0) lsr 16 and len = args.(0) land 0xffff in
      let a = array ctx k arr in
      (need_reply reply) ~handler:k.h_get_reply
        ~args:[| args.(2); args.(3) |]
        ~payload:(encode k a args.(1) len) ());
  reg k.h_read_reply (dispatch_reply ctx);
  reg k.h_get_reply (dispatch_reply ctx);
  reg k.h_reduce (fun ~src:_ ~reply:_ ~args ~payload ->
      let e = args.(0) and op = op_of_code args.(1) in
      let v = decode_one k payload in
      Hashtbl.replace k.reduce_acc e
        (match Hashtbl.find_opt k.reduce_acc e with
        | None -> (1, v)
        | Some (count, acc) -> (count + 1, k.apply op acc v)));
  reg k.h_reduce_result (fun ~src:_ ~reply:_ ~args ~payload ->
      Hashtbl.replace k.reduce_results args.(0) (decode_one k payload))

let install_handlers ctx =
  let reg = ctx.tp.Transport.register in
  install_kind ctx ctx.ints;
  install_kind ctx ctx.floats;
  reg h_write_ack (dispatch_reply ctx);
  reg h_store_pair (fun ~src:_ ~reply:_ ~args ~payload:_ ->
      let v = append_buf ctx args.(0) in
      Intvec.push v args.(1);
      Intvec.push v args.(2));
  reg h_barrier_arrive (fun ~src:_ ~reply:_ ~args ~payload:_ ->
      let e = args.(0) in
      let c =
        match Hashtbl.find_opt ctx.barrier_arrivals e with
        | Some c -> c
        | None ->
            let c = ref 0 in
            Hashtbl.replace ctx.barrier_arrivals e c;
            c
      in
      incr c);
  reg h_barrier_release (fun ~src:_ ~reply:_ ~args ~payload:_ ->
      ctx.barrier_released <- max ctx.barrier_released args.(0));
  reg h_bcast (fun ~src:_ ~reply:_ ~args ~payload ->
      Hashtbl.replace ctx.bcast_slots args.(0) (decode ctx.ints payload))

(* --- collectives ------------------------------------------------------- *)

let barrier ctx =
  timed ctx (fun () ->
      ctx.barrier_epoch <- ctx.barrier_epoch + 1;
      let e = ctx.barrier_epoch in
      let n = nprocs ctx in
      if n > 1 then
        if rank ctx = 0 then begin
          ctx.tp.Transport.poll_until (fun () ->
              match Hashtbl.find_opt ctx.barrier_arrivals e with
              | Some c -> !c >= n - 1
              | None -> false);
          Hashtbl.remove ctx.barrier_arrivals e;
          for r = 1 to n - 1 do
            ctx.tp.Transport.request ~dst:r ~handler:h_barrier_release
              ~args:[| e |] ()
          done
        end
        else begin
          ctx.tp.Transport.request ~dst:0 ~handler:h_barrier_arrive
            ~args:[| e |] ();
          ctx.tp.Transport.poll_until (fun () -> ctx.barrier_released >= e)
        end)

(* Rank 0 folds the others' contributions in arrival order, applies its
   own value last and sends the result back; everyone else contributes and
   waits for it. *)
let reduce ctx elt op v =
  let k = kind ctx elt in
  let n = nprocs ctx in
  if n = 1 then v
  else begin
    ctx.reduce_epoch <- ctx.reduce_epoch + 1;
    let e = ctx.reduce_epoch in
    if rank ctx = 0 then begin
      let acc =
        timed ctx (fun () ->
            ctx.tp.Transport.poll_until (fun () ->
                match Hashtbl.find_opt k.reduce_acc e with
                | Some (count, _) -> count >= n - 1
                | None -> false);
            let _, acc = Hashtbl.find k.reduce_acc e in
            Hashtbl.remove k.reduce_acc e;
            acc)
      in
      let result = k.apply op acc v in
      timed ctx (fun () ->
          for r = 1 to n - 1 do
            ctx.tp.Transport.request ~dst:r ~handler:k.h_reduce_result
              ~args:[| e |] ~payload:(encode_one k result) ()
          done);
      result
    end
    else
      timed ctx (fun () ->
          ctx.tp.Transport.request ~dst:0 ~handler:k.h_reduce
            ~args:[| e; op_code op |] ~payload:(encode_one k v) ();
          ctx.tp.Transport.poll_until (fun () ->
              Hashtbl.mem k.reduce_results e);
          let r = Hashtbl.find k.reduce_results e in
          Hashtbl.remove k.reduce_results e;
          r)
  end

let broadcast_ints ctx ~root a =
  timed ctx (fun () ->
      ctx.bcast_epoch <- ctx.bcast_epoch + 1;
      let e = ctx.bcast_epoch in
      if nprocs ctx = 1 then a
      else if rank ctx = root then begin
        if 8 * Array.length a > ctx.tp.Transport.max_payload then
          invalid_arg "Splitc.broadcast_ints: too large for one message";
        let payload = encode ctx.ints a 0 (Array.length a) in
        for r = 0 to nprocs ctx - 1 do
          if r <> root then
            ctx.tp.Transport.request ~dst:r ~handler:h_bcast ~args:[| e |]
              ~payload ()
        done;
        a
      end
      else begin
        ctx.tp.Transport.poll_until (fun () -> Hashtbl.mem ctx.bcast_slots e);
        let r = Hashtbl.find ctx.bcast_slots e in
        Hashtbl.remove ctx.bcast_slots e;
        r
      end)

(* --- requests awaiting replies ----------------------------------------- *)

type 'a pending = { pn_id : int; pn_remaining : int ref; pn_value : 'a }

(* Send requests under one fresh id: [send id] issues them, each answered
   by one reply that [on_reply] consumes; [replies] is how many to expect. *)
let post ctx ~replies ~on_reply value send =
  timed ctx (fun () ->
      let id = fresh_req ctx in
      let remaining = ref replies in
      Hashtbl.replace ctx.pending id (fun args payload ->
          on_reply args payload;
          decr remaining);
      send id;
      { pn_id = id; pn_remaining = remaining; pn_value = value })

let await ctx p =
  if !(p.pn_remaining) > 0 then
    timed ctx (fun () ->
        ctx.tp.Transport.poll_until (fun () -> !(p.pn_remaining) = 0));
  if p.pn_id >= 0 then Hashtbl.remove ctx.pending p.pn_id;
  p.pn_value

(* [f off n] for consecutive chunks of at most [size] of [len] elements *)
let iter_chunks ~size len f =
  let off = ref 0 in
  while !off < len do
    let n = min size (len - !off) in
    f !off n;
    off := !off + n
  done

let chunk_elems ctx = ctx.tp.Transport.max_payload / 8

(* --- global memory operations ------------------------------------------ *)

let read ctx elt ~proc ~arr ~idx =
  let k = kind ctx elt in
  if proc = rank ctx then (array ctx k arr).(idx)
  else
    let cell = [| k.zero |] in
    (await ctx
       (post ctx ~replies:1
          ~on_reply:(fun _ payload -> cell.(0) <- decode_one k payload)
          cell
          (fun id ->
            ctx.tp.Transport.request ~dst:proc ~handler:k.h_read
              ~args:[| arr; idx; id |] ()))).(0)

let write ctx elt ~proc ~arr ~idx v =
  let k = kind ctx elt in
  if proc = rank ctx then (array ctx k arr).(idx) <- v
  else
    await ctx
      (post ctx ~replies:1
         ~on_reply:(fun _ _ -> ())
         ()
         (fun id ->
           ctx.tp.Transport.request ~dst:proc ~handler:k.h_write
             ~args:[| arr; idx; id |] ~payload:(encode_one k v) ()))

let store_pair ctx ~proc ~buf v1 v2 =
  if proc = rank ctx then begin
    let b = append_buf ctx buf in
    Intvec.push b v1;
    Intvec.push b v2
  end
  else
    timed ctx (fun () ->
        ctx.tp.Transport.request ~dst:proc ~handler:h_store_pair
          ~args:[| buf; v1; v2 |] ())

let store ctx elt ~proc ~arr ~pos a =
  let k = kind ctx elt in
  if proc = rank ctx then Array.blit a 0 (array ctx k arr) pos (Array.length a)
  else
    timed ctx (fun () ->
        iter_chunks ~size:(chunk_elems ctx) (Array.length a) (fun off n ->
            ctx.tp.Transport.request ~dst:proc ~handler:k.h_store
              ~args:[| arr; pos + off |]
              ~payload:(encode k a off n) ()))

let all_store_sync ctx =
  timed ctx (fun () -> ctx.tp.Transport.flush ());
  barrier ctx

(* a chunk's element count rides in the low 16 bits of its first arg *)
let get_async ctx elt ~proc ~arr ~pos ~len =
  let k = kind ctx elt in
  let dest = Array.make len k.zero in
  if proc = rank ctx then begin
    Array.blit (array ctx k arr) pos dest 0 len;
    { pn_id = -1; pn_remaining = ref 0; pn_value = dest }
  end
  else
    let size = min 0xffff (chunk_elems ctx) in
    post ctx
      ~replies:((len + size - 1) / size)
      ~on_reply:(fun args payload ->
        let vals = decode k payload in
        Array.blit vals 0 dest args.(1) (Array.length vals))
      dest
      (fun id ->
        iter_chunks ~size len (fun off n ->
            ctx.tp.Transport.request ~dst:proc ~handler:k.h_get
              ~args:[| (arr lsl 16) lor n; pos + off; id; off |]
              ()))

let get ctx elt ~proc ~arr ~pos ~len =
  await ctx (get_async ctx elt ~proc ~arr ~pos ~len)

(* --- program driver ------------------------------------------------------ *)

let mk_ctx tp =
  {
    tp;
    start_ns = 0;
    comm_ns = 0;
    ints = int_kind ();
    floats = float_kind ();
    append_bufs = Hashtbl.create 8;
    pending = Hashtbl.create 16;
    next_req = 0;
    barrier_epoch = 0;
    barrier_arrivals = Hashtbl.create 4;
    barrier_released = 0;
    reduce_epoch = 0;
    bcast_epoch = 0;
    bcast_slots = Hashtbl.create 4;
  }

let run tps program =
  let n = Array.length tps in
  if n = 0 then invalid_arg "Splitc.run: no transports";
  let sim0 = tps.(0).Transport.sim in
  let ctxs = Array.map mk_ctx tps in
  Array.iter install_handlers ctxs;
  let results = Array.make n None in
  Array.iteri
    (fun r ctx ->
      ignore
        (Proc.spawn ~name:(Printf.sprintf "splitc-%d" r) sim0 (fun () ->
             barrier ctx;
             ctx.start_ns <- Sim.now sim0;
             ctx.comm_ns <- 0;
             let v = program ctx in
             results.(r) <- Some v)))
    ctxs;
  Sim.run sim0;
  Array.mapi
    (fun r v ->
      match v with
      | Some v -> v
      | None -> Fmt.failwith "Splitc.run: processor %d did not finish" r)
    results
