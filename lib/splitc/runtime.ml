open Engine

(* reserved runtime handler ids (applications use 1-99) *)
let h_read_int = 200
let h_read_int_reply = 201
let h_write_int = 202
let h_write_ack = 203
let h_store_pair = 204
let h_store_ints = 205
let h_store_floats = 206
let h_get_ints = 207
let h_get_ints_reply = 208
let h_get_floats = 209
let h_get_floats_reply = 210
let h_barrier_arrive = 211
let h_barrier_release = 212
let h_reduce_int = 213
let h_reduce_int_result = 214
let h_reduce_float = 215
let h_reduce_float_result = 216
let h_bcast = 217
let h_read_float = 218
let h_read_float_reply = 219
let h_write_float = 220

type op = Sum | Min | Max

let op_code = function Sum -> 0 | Min -> 1 | Max -> 2
let op_of_code = function 0 -> Sum | 1 -> Min | _ -> Max

let apply_int op a b =
  match op with Sum -> a + b | Min -> min a b | Max -> max a b

let apply_float op a b =
  match op with Sum -> a +. b | Min -> Float.min a b | Max -> Float.max a b

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

type slot =
  | S_int of int option ref
  | S_float of float option ref
  | S_ack of bool ref
  | S_ints of int array * int * int ref (* dest, base pos, remaining chunks *)
  | S_floats of float array * int * int ref

type ctx = {
  tp : Transport.t;
  mutable start_ns : Sim.time;
  mutable comm_ns : int;
  int_arrays : (int, int array) Hashtbl.t;
  float_arrays : (int, float array) Hashtbl.t;
  append_bufs : (int, Intvec.t) Hashtbl.t;
  pending : (int, slot) Hashtbl.t;
  mutable next_req : int;
  (* barrier *)
  mutable barrier_epoch : int;
  barrier_arrivals : (int, int ref) Hashtbl.t; (* rank 0 only *)
  mutable barrier_released : int;
  (* reduce *)
  mutable reduce_epoch : int;
  reduce_acc : (int, int ref * int ref * float ref) Hashtbl.t; (* rank 0: epoch -> count, int acc, float acc *)
  reduce_results : (int, int * float) Hashtbl.t; (* others: epoch -> results *)
  (* broadcast *)
  mutable bcast_epoch : int;
  bcast_slots : (int, int array) Hashtbl.t;
}

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
let bytes_of_int64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Engine.Buf.of_bytes b

let int64_of_payload p =
  Bytes.get_int64_le (Engine.Buf.to_bytes ~layer:"splitc" p) 0

let bytes_of_int v = bytes_of_int64 (Int64.of_int v)
let int_of_payload b = Int64.to_int (int64_of_payload b)
let bytes_of_float v = bytes_of_int64 (Int64.bits_of_float v)
let float_of_payload b = Int64.float_of_bits (int64_of_payload b)

let encode_ints a pos len =
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int a.(pos + i))
  done;
  Engine.Buf.of_bytes b

let decode_ints p =
  let b = Engine.Buf.to_bytes ~layer:"splitc" p in
  Array.init (Bytes.length b / 8) (fun i ->
      Int64.to_int (Bytes.get_int64_le b (8 * i)))

let encode_floats a pos len =
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float a.(pos + i))
  done;
  Engine.Buf.of_bytes b

let decode_floats p =
  let b = Engine.Buf.to_bytes ~layer:"splitc" p in
  Array.init (Bytes.length b / 8) (fun i ->
      Int64.float_of_bits (Bytes.get_int64_le b (8 * i)))

(* --- array registry --------------------------------------------------- *)

let register_ints ctx ~id a =
  if Hashtbl.mem ctx.int_arrays id then
    Fmt.invalid_arg "Splitc: int array %d already registered" id;
  Hashtbl.replace ctx.int_arrays id a

let register_floats ctx ~id a =
  if Hashtbl.mem ctx.float_arrays id then
    Fmt.invalid_arg "Splitc: float array %d already registered" id;
  Hashtbl.replace ctx.float_arrays id a

let int_array ctx id =
  match Hashtbl.find_opt ctx.int_arrays id with
  | Some a -> a
  | None -> Fmt.failwith "Splitc: unknown int array %d on proc %d" id (rank ctx)

let float_array ctx id =
  match Hashtbl.find_opt ctx.float_arrays id with
  | Some a -> a
  | None ->
      Fmt.failwith "Splitc: unknown float array %d on proc %d" id (rank ctx)

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

let install_handlers ctx =
  let reg = ctx.tp.Transport.register in
  reg h_read_int (fun ~src:_ ~reply ~args ~payload:_ ->
      let a = int_array ctx args.(0) in
      (need_reply reply) ~handler:h_read_int_reply ~args:[| args.(2) |]
        ~payload:(bytes_of_int a.(args.(1)))
        ());
  reg h_read_int_reply (fun ~src:_ ~reply:_ ~args ~payload ->
      match Hashtbl.find_opt ctx.pending args.(0) with
      | Some (S_int r) -> r := Some (int_of_payload payload)
      | _ -> failwith "Splitc: stray read-int reply");
  reg h_read_float (fun ~src:_ ~reply ~args ~payload:_ ->
      let a = float_array ctx args.(0) in
      (need_reply reply) ~handler:h_read_float_reply ~args:[| args.(2) |]
        ~payload:(bytes_of_float a.(args.(1)))
        ());
  reg h_read_float_reply (fun ~src:_ ~reply:_ ~args ~payload ->
      match Hashtbl.find_opt ctx.pending args.(0) with
      | Some (S_float r) -> r := Some (float_of_payload payload)
      | _ -> failwith "Splitc: stray read-float reply");
  reg h_write_int (fun ~src:_ ~reply ~args ~payload ->
      let a = int_array ctx args.(0) in
      a.(args.(1)) <- int_of_payload payload;
      (need_reply reply) ~handler:h_write_ack ~args:[| args.(2) |] ());
  reg h_write_float (fun ~src:_ ~reply ~args ~payload ->
      let a = float_array ctx args.(0) in
      a.(args.(1)) <- float_of_payload payload;
      (need_reply reply) ~handler:h_write_ack ~args:[| args.(2) |] ());
  reg h_write_ack (fun ~src:_ ~reply:_ ~args ~payload:_ ->
      match Hashtbl.find_opt ctx.pending args.(0) with
      | Some (S_ack r) -> r := true
      | _ -> failwith "Splitc: stray write ack");
  reg h_store_pair (fun ~src:_ ~reply:_ ~args ~payload:_ ->
      let v = append_buf ctx args.(0) in
      Intvec.push v args.(1);
      Intvec.push v args.(2));
  reg h_store_ints (fun ~src:_ ~reply:_ ~args ~payload ->
      let a = int_array ctx args.(0) in
      let vals = decode_ints payload in
      Array.blit vals 0 a args.(1) (Array.length vals));
  reg h_store_floats (fun ~src:_ ~reply:_ ~args ~payload ->
      let a = float_array ctx args.(0) in
      let vals = decode_floats payload in
      Array.blit vals 0 a args.(1) (Array.length vals));
  reg h_get_ints (fun ~src:_ ~reply ~args ~payload:_ ->
      let arr = args.(0) lsr 16 and len = args.(0) land 0xffff in
      let a = int_array ctx arr in
      (need_reply reply) ~handler:h_get_ints_reply
        ~args:[| args.(2); args.(3) |]
        ~payload:(encode_ints a args.(1) len) ());
  reg h_get_ints_reply (fun ~src:_ ~reply:_ ~args ~payload ->
      match Hashtbl.find_opt ctx.pending args.(0) with
      | Some (S_ints (dest, base, remaining)) ->
          let vals = decode_ints payload in
          Array.blit vals 0 dest (base + args.(1)) (Array.length vals);
          decr remaining
      | _ -> failwith "Splitc: stray get-ints reply");
  reg h_get_floats (fun ~src:_ ~reply ~args ~payload:_ ->
      let arr = args.(0) lsr 16 and len = args.(0) land 0xffff in
      let a = float_array ctx arr in
      (need_reply reply) ~handler:h_get_floats_reply
        ~args:[| args.(2); args.(3) |]
        ~payload:(encode_floats a args.(1) len) ());
  reg h_get_floats_reply (fun ~src:_ ~reply:_ ~args ~payload ->
      match Hashtbl.find_opt ctx.pending args.(0) with
      | Some (S_floats (dest, base, remaining)) ->
          let vals = decode_floats payload in
          Array.blit vals 0 dest (base + args.(1)) (Array.length vals);
          decr remaining
      | _ -> failwith "Splitc: stray get-floats reply");
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
  reg h_reduce_int (fun ~src:_ ~reply:_ ~args ~payload ->
      let e = args.(0) and op = op_of_code args.(1) in
      let count, acc, _ =
        match Hashtbl.find_opt ctx.reduce_acc e with
        | Some x -> x
        | None ->
            let x = (ref 0, ref 0, ref 0.) in
            Hashtbl.replace ctx.reduce_acc e x;
            x
      in
      let v = int_of_payload payload in
      if !count = 0 then acc := v else acc := apply_int op !acc v;
      incr count);
  reg h_reduce_int_result (fun ~src:_ ~reply:_ ~args ~payload ->
      Hashtbl.replace ctx.reduce_results args.(0) (int_of_payload payload, 0.));
  reg h_reduce_float (fun ~src:_ ~reply:_ ~args ~payload ->
      let e = args.(0) and op = op_of_code args.(1) in
      let count, _, acc =
        match Hashtbl.find_opt ctx.reduce_acc e with
        | Some x -> x
        | None ->
            let x = (ref 0, ref 0, ref 0.) in
            Hashtbl.replace ctx.reduce_acc e x;
            x
      in
      let v = float_of_payload payload in
      if !count = 0 then acc := v else acc := apply_float op !acc v;
      incr count);
  reg h_reduce_float_result (fun ~src:_ ~reply:_ ~args ~payload ->
      Hashtbl.replace ctx.reduce_results args.(0) (0, float_of_payload payload));
  reg h_bcast (fun ~src:_ ~reply:_ ~args ~payload ->
      Hashtbl.replace ctx.bcast_slots args.(0) (decode_ints payload))

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

let reduce_generic ctx ~contrib_handler ~result_handler ~op ~payload ~extract =
  timed ctx (fun () ->
      ctx.reduce_epoch <- ctx.reduce_epoch + 1;
      let e = ctx.reduce_epoch in
      let n = nprocs ctx in
      if n = 1 then None
      else if rank ctx = 0 then begin
        ctx.tp.Transport.poll_until (fun () ->
            match Hashtbl.find_opt ctx.reduce_acc e with
            | Some (count, _, _) -> !count >= n - 1
            | None -> false);
        let _, acc_i, acc_f =
          match Hashtbl.find_opt ctx.reduce_acc e with
          | Some x -> x
          | None -> assert false
        in
        Hashtbl.remove ctx.reduce_acc e;
        Some (!acc_i, !acc_f)
      end
      else begin
        ctx.tp.Transport.request ~dst:0 ~handler:contrib_handler
          ~args:[| e; op_code op |] ~payload ();
        ctx.tp.Transport.poll_until (fun () ->
            Hashtbl.mem ctx.reduce_results e);
        let r = Hashtbl.find ctx.reduce_results e in
        Hashtbl.remove ctx.reduce_results e;
        ignore result_handler;
        ignore extract;
        Some r
      end)

let reduce_int ctx op v =
  let n = nprocs ctx in
  if n = 1 then v
  else if rank ctx = 0 then begin
    match
      reduce_generic ctx ~contrib_handler:h_reduce_int
        ~result_handler:h_reduce_int_result ~op ~payload:(bytes_of_int v)
        ~extract:fst
    with
    | Some (acc, _) ->
        let result = apply_int op acc v in
        timed ctx (fun () ->
            for r = 1 to n - 1 do
              ctx.tp.Transport.request ~dst:r ~handler:h_reduce_int_result
                ~args:[| ctx.reduce_epoch |]
                ~payload:(bytes_of_int result) ()
            done);
        result
    | None -> v
  end
  else
    match
      reduce_generic ctx ~contrib_handler:h_reduce_int
        ~result_handler:h_reduce_int_result ~op ~payload:(bytes_of_int v)
        ~extract:fst
    with
    | Some (i, _) -> i
    | None -> v

let reduce_float ctx op v =
  let n = nprocs ctx in
  if n = 1 then v
  else if rank ctx = 0 then begin
    match
      reduce_generic ctx ~contrib_handler:h_reduce_float
        ~result_handler:h_reduce_float_result ~op ~payload:(bytes_of_float v)
        ~extract:snd
    with
    | Some (_, acc) ->
        let result = apply_float op acc v in
        timed ctx (fun () ->
            for r = 1 to n - 1 do
              ctx.tp.Transport.request ~dst:r ~handler:h_reduce_float_result
                ~args:[| ctx.reduce_epoch |]
                ~payload:(bytes_of_float result) ()
            done);
        result
    | None -> v
  end
  else
    match
      reduce_generic ctx ~contrib_handler:h_reduce_float
        ~result_handler:h_reduce_float_result ~op ~payload:(bytes_of_float v)
        ~extract:snd
    with
    | Some (_, f) -> f
    | None -> v

let broadcast_ints ctx ~root a =
  timed ctx (fun () ->
      ctx.bcast_epoch <- ctx.bcast_epoch + 1;
      let e = ctx.bcast_epoch in
      if nprocs ctx = 1 then a
      else if rank ctx = root then begin
        if 8 * Array.length a > ctx.tp.Transport.max_payload then
          invalid_arg "Splitc.broadcast_ints: too large for one message";
        let payload = encode_ints a 0 (Array.length a) in
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

(* --- global memory operations ------------------------------------------ *)

let read_int ctx ~proc ~arr ~idx =
  if proc = rank ctx then (int_array ctx arr).(idx)
  else
    timed ctx (fun () ->
        let id = fresh_req ctx in
        let r = ref None in
        Hashtbl.replace ctx.pending id (S_int r);
        ctx.tp.Transport.request ~dst:proc ~handler:h_read_int
          ~args:[| arr; idx; id |] ();
        ctx.tp.Transport.poll_until (fun () -> !r <> None);
        Hashtbl.remove ctx.pending id;
        Option.get !r)

let read_float ctx ~proc ~arr ~idx =
  if proc = rank ctx then (float_array ctx arr).(idx)
  else
    timed ctx (fun () ->
        let id = fresh_req ctx in
        let r = ref None in
        Hashtbl.replace ctx.pending id (S_float r);
        ctx.tp.Transport.request ~dst:proc ~handler:h_read_float
          ~args:[| arr; idx; id |] ();
        ctx.tp.Transport.poll_until (fun () -> !r <> None);
        Hashtbl.remove ctx.pending id;
        Option.get !r)

let write_int ctx ~proc ~arr ~idx v =
  if proc = rank ctx then (int_array ctx arr).(idx) <- v
  else
    timed ctx (fun () ->
        let id = fresh_req ctx in
        let r = ref false in
        Hashtbl.replace ctx.pending id (S_ack r);
        ctx.tp.Transport.request ~dst:proc ~handler:h_write_int
          ~args:[| arr; idx; id |] ~payload:(bytes_of_int v) ();
        ctx.tp.Transport.poll_until (fun () -> !r);
        Hashtbl.remove ctx.pending id)

let write_float ctx ~proc ~arr ~idx v =
  if proc = rank ctx then (float_array ctx arr).(idx) <- v
  else
    timed ctx (fun () ->
        let id = fresh_req ctx in
        let r = ref false in
        Hashtbl.replace ctx.pending id (S_ack r);
        ctx.tp.Transport.request ~dst:proc ~handler:h_write_float
          ~args:[| arr; idx; id |] ~payload:(bytes_of_float v) ();
        ctx.tp.Transport.poll_until (fun () -> !r);
        Hashtbl.remove ctx.pending id)

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

let chunk_elems ctx = ctx.tp.Transport.max_payload / 8

let store_ints ctx ~proc ~arr ~pos a =
  if proc = rank ctx then Array.blit a 0 (int_array ctx arr) pos (Array.length a)
  else
    timed ctx (fun () ->
        let ce = chunk_elems ctx in
        let len = Array.length a in
        let off = ref 0 in
        while !off < len do
          let n = min ce (len - !off) in
          ctx.tp.Transport.request ~dst:proc ~handler:h_store_ints
            ~args:[| arr; pos + !off |]
            ~payload:(encode_ints a !off n) ();
          off := !off + n
        done)

let store_floats ctx ~proc ~arr ~pos a =
  if proc = rank ctx then
    Array.blit a 0 (float_array ctx arr) pos (Array.length a)
  else
    timed ctx (fun () ->
        let ce = chunk_elems ctx in
        let len = Array.length a in
        let off = ref 0 in
        while !off < len do
          let n = min ce (len - !off) in
          ctx.tp.Transport.request ~dst:proc ~handler:h_store_floats
            ~args:[| arr; pos + !off |]
            ~payload:(encode_floats a !off n) ();
          off := !off + n
        done)

let all_store_sync ctx =
  timed ctx (fun () -> ctx.tp.Transport.flush ());
  barrier ctx

let get_generic ctx ~proc ~arr ~pos ~len ~handler ~mk_slot =
  timed ctx (fun () ->
      let ce = min 0xffff (chunk_elems ctx) in
      let id = fresh_req ctx in
      let nchunks = (len + ce - 1) / ce in
      let remaining = ref nchunks in
      Hashtbl.replace ctx.pending id (mk_slot remaining);
      let off = ref 0 in
      while !off < len do
        let n = min ce (len - !off) in
        ctx.tp.Transport.request ~dst:proc ~handler
          ~args:[| (arr lsl 16) lor n; pos + !off; id; !off |]
          ();
        off := !off + n
      done;
      ctx.tp.Transport.poll_until (fun () -> !remaining = 0);
      Hashtbl.remove ctx.pending id)

let get_ints ctx ~proc ~arr ~pos ~len =
  if proc = rank ctx then Array.sub (int_array ctx arr) pos len
  else begin
    let dest = Array.make len 0 in
    get_generic ctx ~proc ~arr ~pos ~len ~handler:h_get_ints
      ~mk_slot:(fun remaining -> S_ints (dest, 0, remaining));
    dest
  end

let get_floats ctx ~proc ~arr ~pos ~len =
  if proc = rank ctx then Array.sub (float_array ctx arr) pos len
  else begin
    let dest = Array.make len 0. in
    get_generic ctx ~proc ~arr ~pos ~len ~handler:h_get_floats
      ~mk_slot:(fun remaining -> S_floats (dest, 0, remaining));
    dest
  end

(* --- split-phase gets -------------------------------------------------- *)

type 'a pending = { pn_id : int; pn_remaining : int ref; pn_value : 'a }

let start_get ctx ~proc ~arr ~pos ~len ~handler ~mk_slot value =
  timed ctx (fun () ->
      let ce = min 0xffff (chunk_elems ctx) in
      let id = fresh_req ctx in
      let nchunks = (len + ce - 1) / ce in
      let remaining = ref nchunks in
      Hashtbl.replace ctx.pending id (mk_slot remaining);
      let off = ref 0 in
      while !off < len do
        let n = min ce (len - !off) in
        ctx.tp.Transport.request ~dst:proc ~handler
          ~args:[| (arr lsl 16) lor n; pos + !off; id; !off |]
          ();
        off := !off + n
      done;
      { pn_id = id; pn_remaining = remaining; pn_value = value })

let get_floats_async ctx ~proc ~arr ~pos ~len =
  let dest = Array.make len 0. in
  if proc = rank ctx then begin
    Array.blit (float_array ctx arr) pos dest 0 len;
    { pn_id = -1; pn_remaining = ref 0; pn_value = dest }
  end
  else
    start_get ctx ~proc ~arr ~pos ~len ~handler:h_get_floats
      ~mk_slot:(fun remaining -> S_floats (dest, 0, remaining))
      dest

let get_ints_async ctx ~proc ~arr ~pos ~len =
  let dest = Array.make len 0 in
  if proc = rank ctx then begin
    Array.blit (int_array ctx arr) pos dest 0 len;
    { pn_id = -1; pn_remaining = ref 0; pn_value = dest }
  end
  else
    start_get ctx ~proc ~arr ~pos ~len ~handler:h_get_ints
      ~mk_slot:(fun remaining -> S_ints (dest, 0, remaining))
      dest

let await ctx p =
  if !(p.pn_remaining) > 0 then
    timed ctx (fun () ->
        ctx.tp.Transport.poll_until (fun () -> !(p.pn_remaining) = 0));
  if p.pn_id >= 0 then Hashtbl.remove ctx.pending p.pn_id;
  p.pn_value

(* --- program driver ------------------------------------------------------ *)

let mk_ctx tp =
  {
    tp;
    start_ns = 0;
    comm_ns = 0;
    int_arrays = Hashtbl.create 8;
    float_arrays = Hashtbl.create 8;
    append_bufs = Hashtbl.create 8;
    pending = Hashtbl.create 16;
    next_req = 0;
    barrier_epoch = 0;
    barrier_arrivals = Hashtbl.create 4;
    barrier_released = 0;
    reduce_epoch = 0;
    reduce_acc = Hashtbl.create 4;
    reduce_results = Hashtbl.create 4;
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
