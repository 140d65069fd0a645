(* Tests for the discrete-event engine: event queue, processes,
   synchronization primitives, RNG and statistics. *)

open Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* --- Sim ---------------------------------------------------------- *)

let test_event_ordering () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore (Sim.schedule sim ~delay:30 (fun () -> order := 3 :: !order));
  ignore (Sim.schedule sim ~delay:10 (fun () -> order := 1 :: !order));
  ignore (Sim.schedule sim ~delay:20 (fun () -> order := 2 :: !order));
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "events fire in time order" [ 1; 2; 3 ]
    (List.rev !order)

let test_fifo_same_time () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:10 (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "same-instant events are FIFO"
    [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0 in
  ignore (Sim.schedule sim ~delay:42 (fun () -> seen := Sim.now sim));
  Sim.run sim;
  checki "clock equals the event time inside the handler" 42 !seen;
  checki "clock stays at the last event" 42 (Sim.now sim)

let test_schedule_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:10 (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "scheduling in the past raises"
    (Invalid_argument "Sim.schedule_at: time 5 is in the past (now 10)")
    (fun () -> ignore (Sim.schedule_at sim 5 (fun () -> ())))

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay raises"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1) (fun () -> ())))

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:10 (fun () -> fired := true) in
  Sim.cancel h;
  Sim.run sim;
  checkb "cancelled event does not fire" false !fired;
  Sim.cancel h (* double cancel is a no-op *)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore (Sim.schedule sim ~delay:10 (fun () -> fired := 10 :: !fired));
  ignore (Sim.schedule sim ~delay:100 (fun () -> fired := 100 :: !fired));
  Sim.run ~until:50 sim;
  check (Alcotest.list Alcotest.int) "only events before the limit" [ 10 ] !fired;
  checki "clock moved to the limit" 50 (Sim.now sim);
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "remaining events run later" [ 100; 10 ]
    !fired

let test_pending () =
  let sim = Sim.create () in
  checki "empty initially" 0 (Sim.pending sim);
  let h = Sim.schedule sim ~delay:5 (fun () -> ()) in
  ignore (Sim.schedule sim ~delay:6 (fun () -> ()));
  checki "two pending" 2 (Sim.pending sim);
  Sim.cancel h;
  Sim.run sim;
  checki "none after run" 0 (Sim.pending sim)

let test_step () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:1 (fun () -> ()));
  checkb "step fires one" true (Sim.step sim);
  checkb "no more events" false (Sim.step sim)

(* A static thunk that reschedules itself through the event pool: once a
   warm-up has filled the pool, firing an event allocates nothing. The
   step loop read 6 minor words per event when it was a closure built on
   every call. *)
let test_step_allocates_nothing () =
  let sim = Sim.create () in
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Sim.schedule_drop sim ~delay:1 tick
    end
  in
  let fire n =
    left := n;
    Sim.schedule_drop sim ~delay:1 tick;
    while Sim.step sim do
      ()
    done
  in
  fire 100;
  let events = 10_000 in
  let w0 = Gc.minor_words () in
  fire events;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  check (Alcotest.float 0.) "minor words per event" 0. per_event

let test_time_units () =
  checki "us" 1_000 (Sim.us 1);
  checki "ms" 1_000_000 (Sim.ms 1);
  checki "sec" 1_000_000_000 (Sim.sec 1);
  check (Alcotest.float 1e-9) "to_us" 1.5 (Sim.to_us 1_500);
  checki "of_us_f rounds" 1_500 (Sim.of_us_f 1.5)

let prop_heap_ordering =
  QCheck.Test.make ~name:"events always fire in nondecreasing time order"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 10_000))
    (fun delays ->
      let sim = Sim.create () in
      let times = ref [] in
      List.iter
        (fun d -> ignore (Sim.schedule sim ~delay:d (fun () -> times := Sim.now sim :: !times)))
        delays;
      Sim.run sim;
      let fired = List.rev !times in
      List.sort compare fired = fired && List.length fired = List.length delays)

(* --- Proc --------------------------------------------------------- *)

let test_spawn_runs () =
  let sim = Sim.create () in
  let ran = ref false in
  let p = Proc.spawn sim (fun () -> ran := true) in
  Sim.run sim;
  checkb "body ran" true !ran;
  checkb "state done" true (Proc.state p = Proc.Done)

let test_sleep_advances_time () =
  let sim = Sim.create () in
  let t = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         Proc.sleep sim ~time:100;
         Proc.sleep sim ~time:50;
         t := Sim.now sim));
  Sim.run sim;
  checki "slept 150 total" 150 !t

let test_join () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore
    (Proc.spawn sim (fun () ->
         let child =
           Proc.spawn sim (fun () ->
               Proc.sleep sim ~time:10;
               order := "child" :: !order)
         in
         Proc.join child;
         order := "parent" :: !order));
  Sim.run sim;
  check
    (Alcotest.list Alcotest.string)
    "join waits for the child" [ "child"; "parent" ] (List.rev !order)

exception Boom

let test_join_reraises () =
  let sim = Sim.create () in
  let caught = ref false in
  ignore
    (Proc.spawn sim (fun () ->
         let child = Proc.spawn sim (fun () -> raise Boom) in
         Proc.sleep sim ~time:1;
         try Proc.join child with Boom -> caught := true));
  Sim.run sim;
  checkb "exception crossed join" true !caught

let test_failed_state () =
  let sim = Sim.create () in
  let p = Proc.spawn sim (fun () -> raise Boom) in
  Sim.run sim;
  checkb "failed" true (match Proc.state p with Proc.Failed Boom -> true | _ -> false)

let test_run_to_completion () =
  let sim = Sim.create () in
  let v =
    Proc.run_to_completion sim (fun () ->
        Proc.sleep sim ~time:5;
        42)
  in
  checki "returns the value" 42 v

let test_run_to_completion_deadlock () =
  let sim = Sim.create () in
  let deadlocked =
    try
      ignore
        (Proc.run_to_completion sim (fun () ->
             Proc.suspend (fun _resume -> ())));
      false
    with Failure _ -> true
  in
  checkb "deadlock detected" true deadlocked

let test_blocking_outside_process () =
  let sim = Sim.create () in
  checkb "raises Not_in_process" true
    (try
       Proc.sleep sim ~time:1;
       false
     with Proc.Not_in_process -> true)

let test_join_all () =
  let sim = Sim.create () in
  let count = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         let children =
           List.init 5 (fun i ->
               Proc.spawn sim (fun () ->
                   Proc.sleep sim ~time:(10 * (i + 1));
                   incr count))
         in
         Proc.join_all children;
         checki "all children done at join" 5 !count));
  Sim.run sim

(* --- Sync --------------------------------------------------------- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Sync.Mailbox.create sim in
  let got = ref [] in
  ignore
    (Proc.spawn sim (fun () ->
         for _ = 1 to 3 do
           got := Sync.Mailbox.recv mb :: !got
         done));
  ignore
    (Proc.spawn sim (fun () ->
         Sync.Mailbox.send mb 1;
         Sync.Mailbox.send mb 2;
         Sync.Mailbox.send mb 3));
  Sim.run sim;
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocks () =
  let sim = Sim.create () in
  let mb = Sync.Mailbox.create sim in
  let when_received = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         ignore (Sync.Mailbox.recv mb);
         when_received := Sim.now sim));
  ignore
    (Proc.spawn sim (fun () ->
         Proc.sleep sim ~time:500;
         Sync.Mailbox.send mb ()));
  Sim.run sim;
  checki "recv blocked until the send" 500 !when_received

let test_mailbox_timeout () =
  let sim = Sim.create () in
  let mb : int Sync.Mailbox.t = Sync.Mailbox.create sim in
  let r = ref (Some 0) in
  ignore (Proc.spawn sim (fun () -> r := Sync.Mailbox.recv_timeout mb ~timeout:100));
  Sim.run sim;
  checkb "timed out" true (!r = None);
  checki "time advanced to the deadline" 100 (Sim.now sim)

let test_mailbox_timeout_delivery () =
  let sim = Sim.create () in
  let mb = Sync.Mailbox.create sim in
  let r = ref None in
  ignore (Proc.spawn sim (fun () -> r := Sync.Mailbox.recv_timeout mb ~timeout:100));
  ignore (Proc.spawn sim (fun () -> Proc.sleep sim ~time:10; Sync.Mailbox.send mb 7));
  Sim.run sim;
  checkb "delivered before deadline" true (!r = Some 7)

let test_semaphore () =
  let sim = Sim.create () in
  let sem = Sync.Semaphore.create sim 2 in
  let active = ref 0 and max_active = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Proc.spawn sim (fun () ->
           Sync.Semaphore.acquire sem;
           incr active;
           if !active > !max_active then max_active := !active;
           Proc.sleep sim ~time:10;
           decr active;
           Sync.Semaphore.release sem))
  done;
  Sim.run sim;
  checki "at most 2 concurrent holders" 2 !max_active

let test_try_acquire () =
  let sim = Sim.create () in
  let sem = Sync.Semaphore.create sim 1 in
  checkb "first succeeds" true (Sync.Semaphore.try_acquire sem);
  checkb "second fails" false (Sync.Semaphore.try_acquire sem);
  Sync.Semaphore.release sem;
  checki "released" 1 (Sync.Semaphore.available sem)

let test_condition_broadcast () =
  let sim = Sim.create () in
  let cond = Sync.Condition.create sim in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Proc.spawn sim (fun () ->
           Sync.Condition.wait cond;
           incr woken))
  done;
  ignore
    (Proc.spawn sim (fun () ->
         Proc.sleep sim ~time:10;
         Sync.Condition.broadcast cond));
  Sim.run sim;
  checki "all woken" 3 !woken

let test_wait_for () =
  let sim = Sim.create () in
  let cond = Sync.Condition.create sim in
  let flag = ref false and done_at = ref 0 in
  ignore
    (Proc.spawn sim (fun () ->
         Sync.Condition.wait_for cond (fun () -> !flag);
         done_at := Sim.now sim));
  ignore
    (Proc.spawn sim (fun () ->
         Proc.sleep sim ~time:5;
         Sync.Condition.broadcast cond (* spurious: predicate still false *);
         Proc.sleep sim ~time:5;
         flag := true;
         Sync.Condition.broadcast cond));
  Sim.run sim;
  checki "waited through the spurious wakeup" 10 !done_at

let test_server_serializes () =
  let sim = Sim.create () in
  let server = Sync.Server.create sim in
  let completions = ref [] in
  Sync.Server.submit server ~cost:10 (fun () ->
      completions := (1, Sim.now sim) :: !completions);
  Sync.Server.submit server ~cost:5 (fun () ->
      completions := (2, Sim.now sim) :: !completions);
  checki "one queued behind the running job" 1 (Sync.Server.queue_length server);
  Sim.run sim;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "jobs run back to back, FIFO"
    [ (1, 10); (2, 15) ]
    (List.rev !completions);
  checki "busy time accumulated" 15 (Sync.Server.busy_time server)

let test_server_idle_restart () =
  let sim = Sim.create () in
  let server = Sync.Server.create sim in
  let last = ref 0 in
  Sync.Server.submit server ~cost:10 (fun () -> last := Sim.now sim);
  Sim.run sim;
  ignore (Sim.schedule sim ~delay:100 (fun () ->
      Sync.Server.submit server ~cost:7 (fun () -> last := Sim.now sim)));
  Sim.run sim;
  checki "second job starts when submitted" 117 !last

(* --- Rng ---------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" xs ys

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  checkb "different seeds differ" true (xs <> ys)

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  checkb "split stream differs" true (xs <> ys)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:200
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 3 in
  checkb "p=0 never true" false
    (List.exists Fun.id (List.init 50 (fun _ -> Rng.bernoulli rng ~p:0.)));
  checkb "p=1 always true" true
    (List.for_all Fun.id (List.init 50 (fun _ -> Rng.bernoulli rng ~p:1.)))

(* The generator's state is unboxed: a draw that does not return an
   [int64] allocates nothing. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 11 in
  let n = 10_000 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.5 then incr acc;
    acc := !acc + Rng.int rng 1000 + Rng.bits rng
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.) "minor words for 3 draws x 10k" 0. words

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_exponential_positive () =
  let rng = Rng.create 5 in
  checkb "exponential samples positive" true
    (List.for_all (fun x -> x > 0.) (List.init 100 (fun _ -> Rng.exponential rng ~mean:5.)))

(* --- Stats -------------------------------------------------------- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4.; 5. ];
  checki "count" 5 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 3. (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "min" 1. (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 5. (Stats.Summary.max s);
  check (Alcotest.float 1e-9) "median" 3. (Stats.Summary.percentile s 0.5);
  check (Alcotest.float 1e-9) "total" 15. (Stats.Summary.total s)

let test_series () =
  let s = Stats.Series.make "s" [ (1., 10.); (2., 20.); (3., 15.) ] in
  check (Alcotest.float 1e-9) "y_at exact" 20. (Stats.Series.y_at s 2.);
  check (Alcotest.float 1e-9) "y_at nearest" 15. (Stats.Series.y_at s 2.9);
  check (Alcotest.float 1e-9) "max_y" 20. (Stats.Series.max_y s);
  check (Alcotest.float 1e-9) "min_y" 10. (Stats.Series.min_y s)

let test_percentile_interpolation () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 4.; 1.; 3.; 2. ];
  check (Alcotest.float 1e-9) "p50 interpolates" 2.5
    (Stats.Summary.percentile s 0.5);
  check (Alcotest.float 1e-9) "p25 lands on a sample" 1.75
    (Stats.Summary.percentile s 0.25);
  check (Alcotest.float 1e-9) "p0 is the min" 1. (Stats.Summary.percentile s 0.);
  check (Alcotest.float 1e-9) "p1 is the max" 4. (Stats.Summary.percentile s 1.);
  check (Alcotest.float 1e-9) "out-of-range p clamps" 4.
    (Stats.Summary.percentile s 2.);
  checkb "empty summary raises" true
    (try
       ignore (Stats.Summary.percentile (Stats.Summary.create ()) 0.5);
       false
     with Invalid_argument _ -> true)

(* --- Trace -------------------------------------------------------- *)

let test_trace_time_order () =
  Trace.start ();
  let sim = Sim.create () in
  (* emit from events scheduled out of order: the ring must still record
     them in nondecreasing virtual time because the sim fires them in order *)
  List.iter
    (fun d ->
      ignore
        (Sim.schedule sim ~delay:d (fun () ->
             Trace.instant Trace.Cell "tick" ~args:[ ("d", Trace.Int d) ])))
    [ 30; 10; 50; 20; 40; 10 ];
  Sim.run sim;
  let ts = List.map (fun (e : Trace.event) -> e.ts) (Trace.events ()) in
  checki "all six retained" 6 (List.length ts);
  checkb "nondecreasing virtual-time order" true
    (List.sort compare ts = ts);
  check (Alcotest.list Alcotest.int) "stamped with the sim clock"
    [ 10; 10; 20; 30; 40; 50 ] ts;
  Trace.stop ();
  Trace.clear ()

let test_trace_ring_bounded () =
  Trace.start ~capacity:8 ();
  let sim = Sim.create () in
  for i = 1 to 20 do
    ignore
      (Sim.schedule sim ~delay:i (fun () -> Trace.instant Trace.Mux "e"))
  done;
  Sim.run sim;
  checki "ring keeps the newest 8" 8 (List.length (Trace.events ()));
  checki "total counts every emission" 20 (Trace.total_events ());
  checki "drops counted" 12 (Trace.dropped_events ());
  checki "oldest retained is event 13" (Sim.ns 13)
    (match Trace.events () with e :: _ -> e.ts | [] -> -1);
  Trace.stop ();
  Trace.clear ()

let test_trace_disabled_is_silent () =
  Trace.clear ();
  checkb "disabled by default" false (Trace.enabled ());
  Trace.instant Trace.Tcp "ignored";
  checki "no events recorded while disabled" 0 (List.length (Trace.events ()))

(* A minimal JSON reader, enough to round-trip the Chrome export. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c" c));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
                pos := !pos + 4;
                if code < 128 then Buffer.add_char b (Char.chr code)
                else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | '\000' -> raise (Bad "unterminated string")
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              if peek () = ',' then begin
                advance ();
                members ((k, v) :: acc)
              end
              else begin
                expect '}';
                List.rev ((k, v) :: acc)
              end
            in
            Obj (members [])
          end
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              if peek () = ',' then begin
                advance ();
                elems (v :: acc)
              end
              else begin
                expect ']';
                List.rev (v :: acc)
              end
            in
            Arr (elems [])
          end
      | '"' -> Str (parse_string ())
      | 't' ->
          pos := !pos + 4;
          Bool true
      | 'f' ->
          pos := !pos + 5;
          Bool false
      | 'n' ->
          pos := !pos + 4;
          Null
      | _ ->
          let start = !pos in
          let is_num c =
            match c with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false
          in
          while is_num (peek ()) do
            advance ()
          done;
          if !pos = start then raise (Bad "unexpected character");
          Num (float_of_string (String.sub s start (!pos - start)))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let mem k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

let test_trace_chrome_roundtrip () =
  Trace.start ();
  let sim = Sim.create () in
  ignore
    (Sim.schedule sim ~delay:1_500 (fun () ->
         Trace.instant Trace.Mux "deliver" ~tid:3
           ~args:
             [
               ("vci", Trace.Int 32);
               ("outcome", Trace.Str "needs \"escaping\"\n");
               ("frac", Trace.Float 0.25);
             ]));
  ignore
    (Sim.schedule sim ~delay:2_000 (fun () ->
         Trace.complete Trace.Cpu "uam" ~dur:800));
  Sim.run sim;
  let json = Trace.to_chrome_json () in
  Trace.stop ();
  Trace.clear ();
  let parsed = Json.parse json in
  let objs = match parsed with Json.Arr l -> l | _ -> [] in
  checki "exports an array with both events" 2 (List.length objs);
  List.iter
    (fun o ->
      List.iter
        (fun k -> checkb ("event has " ^ k) true (Json.mem k o <> None))
        [ "name"; "ph"; "ts"; "pid"; "tid" ])
    objs;
  let first = List.nth objs 0 and second = List.nth objs 1 in
  checkb "name round-trips" true (Json.mem "name" first = Some (Json.Str "deliver"));
  checkb "phase i" true (Json.mem "ph" first = Some (Json.Str "i"));
  checkb "ts is microseconds" true (Json.mem "ts" first = Some (Json.Num 1.5));
  checkb "tid carried" true (Json.mem "tid" first = Some (Json.Num 3.));
  (match Json.mem "args" first with
  | Some args ->
      checkb "int arg" true (Json.mem "vci" args = Some (Json.Num 32.));
      checkb "string arg escapes round-trip" true
        (Json.mem "outcome" args = Some (Json.Str "needs \"escaping\"\n"));
      checkb "float arg" true (Json.mem "frac" args = Some (Json.Num 0.25))
  | None -> Alcotest.fail "first event lost its args");
  checkb "complete has dur (0.8 us)" true
    (Json.mem "dur" second = Some (Json.Num 0.8));
  checkb "complete phase X" true (Json.mem "ph" second = Some (Json.Str "X"))

(* --- Metrics ------------------------------------------------------ *)

let test_metrics_dedup () =
  Metrics.reset ();
  let c1 = Metrics.counter "dedup_test_total" [ ("a", "1"); ("b", "2") ] in
  let c2 = Metrics.counter "dedup_test_total" [ ("b", "2"); ("a", "1") ] in
  let c3 = Metrics.counter "dedup_test_total" [ ("a", "1"); ("b", "3") ] in
  Metrics.Counter.inc c1;
  Metrics.Counter.inc c2;
  Metrics.Counter.inc c3;
  checki "label order is irrelevant: same instrument" 2
    (Metrics.Counter.value c1);
  checki "different labels: distinct instrument" 1 (Metrics.Counter.value c3);
  checkb "lookup sees the shared sample" true
    (Metrics.counter_value "dedup_test_total" [ ("b", "2"); ("a", "1") ]
    = Some 2)

let test_metrics_reset_keeps_registrations () =
  Metrics.reset ();
  let c = Metrics.counter ~help:"h" "reset_test_total" [] in
  Metrics.Counter.add c 7;
  Metrics.reset ();
  checki "value zeroed" 0 (Metrics.Counter.value c);
  Metrics.Counter.inc c;
  checki "old handle still feeds the registry" 1
    (match Metrics.counter_value "reset_test_total" [] with
    | Some v -> v
    | None -> -1);
  let dump = Metrics.to_prometheus_string () in
  checkb "family present in the dump after reset" true
    (let re = "reset_test_total" in
     let rec find i =
       i + String.length re <= String.length dump
       && (String.sub dump i (String.length re) = re || find (i + 1))
     in
     find 0)

(* The quickstart ping-pong must meter identically on every run: all counts
   derive from the deterministic simulation. *)
let test_metrics_pingpong_deterministic () =
  let iters = 10 in
  let run () =
    Metrics.reset ();
    let rtt = Experiments.Common.raw_rtt ~iters ~size:32 () in
    (rtt, Metrics.to_prometheus_string ())
  in
  let rtt1, dump1 = run () in
  let rtt2, dump2 = run () in
  check (Alcotest.float 1e-9) "same RTT both runs" rtt1 rtt2;
  check Alcotest.string "identical metrics dumps" dump1 dump2;
  checki "every echo crossed host 1's mux" iters
    (match Metrics.counter_value "unet_mux_deliveries_total" [ ("host", "1") ] with
    | Some v -> v
    | None -> -1);
  checki "every reply crossed host 0's mux" iters
    (match Metrics.counter_value "unet_mux_deliveries_total" [ ("host", "0") ] with
    | Some v -> v
    | None -> -1);
  Metrics.reset ()

(* --- Trace ring overflow counter ----------------------------------- *)

let test_trace_dropped_counter () =
  Metrics.reset ();
  Trace.start ~capacity:4 ();
  let sim = Sim.create () in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:i (fun () -> Trace.instant Trace.Mux "e"))
  done;
  Sim.run sim;
  checki "overwrites surface in the metrics registry" 6
    (match Metrics.counter_value "trace_events_dropped_total" [] with
    | Some v -> v
    | None -> -1);
  checki "counter agrees with dropped_events" (Trace.dropped_events ()) 6;
  Trace.stop ();
  Trace.clear ();
  Metrics.reset ()

(* --- Json ----------------------------------------------------------- *)

(* Ej, not Json: the local chrome-trace reader above shadows Engine.Json *)
module Ej = Engine.Json

let test_json_roundtrip () =
  let v =
    Ej.Obj
      [
        ("name", Ej.Str "fig3");
        ("quick", Ej.Bool true);
        ("nothing", Ej.Null);
        ( "series",
          Ej.List
            [
              Ej.List [ Ej.Num 4.; Ej.Num 64.916 ];
              Ej.List [ Ej.Num 1024.; Ej.Num 239.534 ];
            ] );
      ]
  in
  let v' = Ej.of_string (Ej.to_string v) in
  checkb "round-trips structurally" true (v = v');
  check (Alcotest.float 1e-9) "field access" 64.916
    (match Ej.member "series" v' with
    | Some (Ej.List (Ej.List [ _; y ] :: _)) ->
        Option.value ~default:nan (Ej.to_float y)
    | _ -> nan)

let test_json_parses_escapes_and_numbers () =
  let v =
    Ej.of_string
      {| { "s" : "a\"b\\c\nd\u0041", "neg": -1.5e2, "i": 42, "l": [true, false, null] } |}
  in
  checkb "string escapes" true
    (Ej.member "s" v |> Option.map Ej.to_str
    = Some (Some "a\"b\\c\nd\065"));
  checkb "scientific notation" true
    (Option.bind (Ej.member "neg" v) Ej.to_float = Some (-150.));
  checkb "integral numbers print without decimals" true
    (Ej.to_string (Ej.Num 42.) = "42");
  checkb "malformed input raises" true
    (try
       ignore (Ej.of_string "{ \"x\": }");
       false
     with Ej.Parse_error _ -> true)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "engine"
    [
      ( "sim",
        [
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_fifo_same_time;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "past rejected" `Quick test_schedule_past_rejected;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "pending" `Quick test_pending;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "step allocates nothing" `Quick
            test_step_allocates_nothing;
          Alcotest.test_case "time units" `Quick test_time_units;
          qt prop_heap_ordering;
        ] );
      ( "proc",
        [
          Alcotest.test_case "spawn runs" `Quick test_spawn_runs;
          Alcotest.test_case "sleep advances time" `Quick test_sleep_advances_time;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join re-raises" `Quick test_join_reraises;
          Alcotest.test_case "failed state" `Quick test_failed_state;
          Alcotest.test_case "run_to_completion" `Quick test_run_to_completion;
          Alcotest.test_case "deadlock detection" `Quick test_run_to_completion_deadlock;
          Alcotest.test_case "blocking outside process" `Quick test_blocking_outside_process;
          Alcotest.test_case "join_all" `Quick test_join_all;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox blocks" `Quick test_mailbox_blocks;
          Alcotest.test_case "mailbox timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "mailbox timeout delivery" `Quick test_mailbox_timeout_delivery;
          Alcotest.test_case "semaphore" `Quick test_semaphore;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
          Alcotest.test_case "condition broadcast" `Quick test_condition_broadcast;
          Alcotest.test_case "wait_for" `Quick test_wait_for;
          Alcotest.test_case "server serializes" `Quick test_server_serializes;
          Alcotest.test_case "server idle restart" `Quick test_server_idle_restart;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          qt prop_rng_int_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          qt prop_shuffle_permutes;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "percentile interpolation" `Quick
            test_percentile_interpolation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "virtual-time order" `Quick test_trace_time_order;
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "disabled is silent" `Quick
            test_trace_disabled_is_silent;
          Alcotest.test_case "chrome JSON round-trip" `Quick
            test_trace_chrome_roundtrip;
          Alcotest.test_case "overflow feeds dropped counter" `Quick
            test_trace_dropped_counter;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes and numbers" `Quick
            test_json_parses_escapes_and_numbers;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "dedup by name+labels" `Quick test_metrics_dedup;
          Alcotest.test_case "reset keeps registrations" `Quick
            test_metrics_reset_keeps_registrations;
          Alcotest.test_case "ping-pong deterministic" `Quick
            test_metrics_pingpong_deterministic;
        ] );
    ]
