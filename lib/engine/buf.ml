(* Slice/iovec views. See buf.mli for the ownership and counting story. *)

type span = { base : bytes; off : int; len : int }
type t = { spans : span list; len : int }

let empty = { spans = []; len = 0 }

let of_bytes b =
  let len = Bytes.length b in
  if len = 0 then empty else { spans = [ { base = b; off = 0; len } ]; len }

let of_bytes_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Buf.of_bytes_sub";
  if len = 0 then empty else { spans = [ { base = b; off = pos; len } ]; len }

let of_string s = of_bytes (Bytes.of_string s)
let alloc n = of_bytes (Bytes.make n '\000')
let length t = t.len
let is_empty t = t.len = 0

(* The spans covering [want] bytes from [skip] bytes into [spans]. A span
   covered whole is shared, not rebuilt. *)
let rec take skip want = function
  | [] -> []
  | (s : span) :: rest ->
      if skip >= s.len then take (skip - s.len) want rest
      else
        let n = min (s.len - skip) want in
        let s' =
          if skip = 0 && n = s.len then s
          else { base = s.base; off = s.off + skip; len = n }
        in
        s' :: (if want > n then take 0 (want - n) rest else [])

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Buf.sub";
  if len = 0 then empty
  else if len = t.len then t
  else { spans = take pos len t.spans; len }

(* --- fused accumulation ---------------------------------------------- *)

(* The newest span stays open as [a_open], extended in place to [a_len]
   while the views added continue it on the same store; only a break
   (another store, or a gap) closes it onto [a_done]. A span closed
   unextended is kept, not rebuilt. *)
type acc = {
  mutable a_open : span;  (* [no_span] when none is open *)
  mutable a_len : int;
  mutable a_done : span list;  (* closed spans, newest first *)
  mutable a_total : int;
}

let no_span = { base = Bytes.empty; off = 0; len = 0 }

let acc_clear a =
  a.a_open <- no_span;
  a.a_len <- 0;
  a.a_done <- [];
  a.a_total <- 0

let acc_create () = { a_open = no_span; a_len = 0; a_done = []; a_total = 0 }
let acc_length a = a.a_total

let closed a =
  let o = a.a_open in
  if a.a_len = o.len then o else { o with len = a.a_len }

(* top level, not local closures: adding allocates only when a span
   breaks *)
let rec acc_spans a = function
  | [] -> ()
  | (s : span) :: rest ->
      let o = a.a_open in
      if s.base == o.base && o.off + a.a_len = s.off then
        a.a_len <- a.a_len + s.len
      else begin
        if o != no_span then a.a_done <- closed a :: a.a_done;
        a.a_open <- s;
        a.a_len <- s.len
      end;
      acc_spans a rest

let acc_add a t =
  acc_spans a t.spans;
  a.a_total <- a.a_total + t.len

let rec acc_all a = function
  | [] -> ()
  | t :: ts ->
      acc_add a t;
      acc_all a ts

let acc_take a =
  if a.a_total = 0 then empty
  else begin
    let spans = List.rev_append a.a_done [ closed a ] in
    let t = { spans; len = a.a_total } in
    acc_clear a;
    t
  end

(* adjacent views over the same store fuse, so span lists stay short *)
let concat ts =
  let a = acc_create () in
  acc_all a ts;
  acc_take a

let append a b = concat [ a; b ]

let spans t = List.map (fun s -> (s.base, s.off, s.len)) t.spans
let iter_spans t f = List.iter (fun s -> f s.base ~pos:s.off ~len:s.len) t.spans

let fold_spans t ~init ~f =
  List.fold_left (fun acc s -> f acc s.base ~pos:s.off ~len:s.len) init t.spans

let get_uint8 t i =
  if i < 0 || i >= t.len then invalid_arg "Buf.get_uint8";
  let rec go i = function
    | (s : span) :: rest ->
        if i < s.len then Char.code (Bytes.get s.base (s.off + i))
        else go (i - s.len) rest
    | [] -> assert false
  in
  go i t.spans

let get_uint16_be t i = (get_uint8 t i lsl 8) lor get_uint8 t (i + 1)
let get_uint16_le t i = get_uint8 t i lor (get_uint8 t (i + 1) lsl 8)

let get_uint32_be t i =
  Int32.logor
    (Int32.shift_left (Int32.of_int (get_uint16_be t i)) 16)
    (Int32.of_int (get_uint16_be t (i + 2)))

let get_uint32_le t i =
  Int32.logor
    (Int32.of_int (get_uint16_le t i))
    (Int32.shift_left (Int32.of_int (get_uint16_le t (i + 2))) 16)

let equal a b =
  a.len = b.len
  &&
  (* walk both span lists in lockstep *)
  let rec go sa sb =
    match (sa, sb) with
    | [], [] -> true
    | [], _ | _, [] -> false
    | (a : span) :: ra, (b : span) :: rb ->
        let n = min a.len b.len in
        let rec cmp i =
          i >= n
          || Bytes.get a.base (a.off + i) = Bytes.get b.base (b.off + i)
             && cmp (i + 1)
        in
        cmp 0
        &&
        let rest (x : span) n =
          if x.len = n then []
          else [ { x with off = x.off + n; len = x.len - n } ]
        in
        go (rest a n @ ra) (rest b n @ rb)
  in
  go a.spans b.spans

let equal_bytes t b = equal t (of_bytes b)
let pp fmt t = Format.fprintf fmt "<buf %dB/%d spans>" t.len (List.length t.spans)

(* --- counted copies ------------------------------------------------- *)

let layer_counters : (string, Metrics.Counter.t * Metrics.Counter.t) Hashtbl.t =
  Hashtbl.create 16

let counters layer =
  match Hashtbl.find_opt layer_counters layer with
  | Some c -> c
  | None ->
      let c =
        ( Metrics.counter ~help:"Data-path copies performed, by layer"
            "buf_copies_total"
            [ ("layer", layer) ],
          Metrics.counter ~help:"Bytes moved by data-path copies, by layer"
            "buf_copy_bytes_total"
            [ ("layer", layer) ] )
      in
      Hashtbl.replace layer_counters layer c;
      c

let count ~layer bytes =
  let copies, moved = counters layer in
  Metrics.Counter.inc copies;
  Metrics.Counter.add moved bytes

let copy_into ~layer t ~dst ~dst_pos =
  if dst_pos < 0 || dst_pos + t.len > Bytes.length dst then
    invalid_arg "Buf.copy_into";
  count ~layer t.len;
  let pos = ref dst_pos in
  List.iter
    (fun s ->
      Bytes.blit s.base s.off dst !pos s.len;
      pos := !pos + s.len)
    t.spans

let to_bytes ~layer t =
  let b = Bytes.create t.len in
  copy_into ~layer t ~dst:b ~dst_pos:0;
  b

(* A snapshot's stores stay under OCaml's minor-heap object limit (256
   words). A larger block is allocated straight into the major heap and
   lives there until a major cycle sweeps it, so one large store per
   PDU made the peak heap scale with whatever else the program kept
   live (DESIGN.md §9). 2016 B is a multiple of the 48-byte cell
   payload: AAL5 cell views cut from a snapshot never straddle two
   stores. *)
let store_max = 2016

let copy ~layer t =
  count ~layer t.len;
  (* fill [b] from [at] out of [spans]; the unconsumed rest *)
  let rec fill b at (spans : span list) =
    match spans with
    | s :: rest when at < Bytes.length b ->
        let take = min s.len (Bytes.length b - at) in
        Bytes.blit s.base s.off b at take;
        if take = s.len then fill b (at + take) rest
        else { s with off = s.off + take; len = s.len - take } :: rest
    | _ -> spans
  in
  let rec stores pos spans =
    if pos >= t.len then []
    else begin
      let len = min store_max (t.len - pos) in
      let b = Bytes.create len in
      let rest = fill b 0 spans in
      { base = b; off = 0; len } :: stores (pos + len) rest
    end
  in
  { spans = stores 0 t.spans; len = t.len }

let blit_bytes ~layer ~src ~src_pos ~dst ~dst_pos ~len =
  count ~layer len;
  Bytes.blit src src_pos dst dst_pos len

let copies_total () =
  Hashtbl.fold
    (fun _ (c, _) acc -> acc + Metrics.Counter.value c)
    layer_counters 0

let copy_bytes_total () =
  Hashtbl.fold
    (fun _ (_, m) acc -> acc + Metrics.Counter.value m)
    layer_counters 0
