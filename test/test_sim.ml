(* Tests for the discrete-event simulator core. *)

module Sim = Rfd_engine.Sim

let test_initial_state () =
  let sim = Sim.create () in
  Alcotest.(check (float 0.)) "clock at 0" 0. (Sim.now sim);
  Alcotest.(check int) "no pending" 0 (Sim.pending sim);
  Alcotest.(check (option (float 0.))) "no next" None (Sim.next_time sim);
  Alcotest.(check bool) "step on empty" false (Sim.step sim)

let test_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let mark tag = fun _ -> log := tag :: !log in
  ignore (Sim.schedule_at sim ~time:3.0 (mark "c"));
  ignore (Sim.schedule_at sim ~time:1.0 (mark "a"));
  ignore (Sim.schedule_at sim ~time:2.0 (mark "b"));
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 3.0 (Sim.now sim)

let test_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule_at sim ~time:1.0 (fun _ -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_relative_delay () =
  let sim = Sim.create () in
  let seen = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun sim ->
         seen := Sim.now sim :: !seen;
         ignore (Sim.schedule sim ~delay:2.0 (fun sim -> seen := Sim.now sim :: !seen))));
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "nested delays" [ 1.0; 3.0 ] (List.rev !seen)

let test_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:5.0 (fun _ -> ()));
  Sim.run sim;
  Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time in the past")
    (fun () -> ignore (Sim.schedule_at sim ~time:1.0 (fun _ -> ())));
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> ignore (Sim.schedule sim ~delay:(-1.) (fun _ -> ())))

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule_at sim ~time:1.0 (fun _ -> fired := true) in
  Alcotest.(check bool) "pending" true (Sim.is_pending sim ev);
  Sim.cancel sim ev;
  Alcotest.(check bool) "not pending" false (Sim.is_pending sim ev);
  Alcotest.(check int) "live count" 0 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check bool) "never fired" false !fired;
  (* double cancel is a no-op *)
  Sim.cancel sim ev;
  Alcotest.(check int) "still zero" 0 (Sim.pending sim)

let test_cancel_one_of_many () =
  let sim = Sim.create () in
  let log = ref [] in
  let _a = Sim.schedule_at sim ~time:1.0 (fun _ -> log := "a" :: !log) in
  let b = Sim.schedule_at sim ~time:2.0 (fun _ -> log := "b" :: !log) in
  let _c = Sim.schedule_at sim ~time:3.0 (fun _ -> log := "c" :: !log) in
  Sim.cancel sim b;
  Sim.run sim;
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] (List.rev !log)

let test_run_until () =
  let sim = Sim.create () in
  let log = ref [] in
  List.iter
    (fun time -> ignore (Sim.schedule_at sim ~time (fun _ -> log := time :: !log)))
    [ 1.0; 2.0; 3.0; 10.0 ];
  Sim.run ~until:5.0 sim;
  Alcotest.(check (list (float 0.))) "events up to horizon" [ 1.0; 2.0; 3.0 ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock advanced to horizon" 5.0 (Sim.now sim);
  Alcotest.(check int) "one pending left" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (float 0.)) "resumes past horizon" 10.0 (Sim.now sim)

let test_schedule_from_action () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick sim =
    incr count;
    if !count < 10 then ignore (Sim.schedule sim ~delay:1.0 tick)
  in
  ignore (Sim.schedule sim ~delay:1.0 tick);
  Sim.run sim;
  Alcotest.(check int) "chain of 10" 10 !count;
  Alcotest.(check (float 0.)) "clock" 10.0 (Sim.now sim);
  Alcotest.(check int) "executed" 10 (Sim.events_executed sim)

let test_same_time_as_now () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun sim ->
         (* scheduling at the current instant is allowed and runs after *)
         ignore (Sim.schedule sim ~delay:0. (fun _ -> fired := true))));
  Sim.run sim;
  Alcotest.(check bool) "zero-delay event ran" true !fired

let test_nan_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Sim.schedule_at: NaN time") (fun () ->
      ignore (Sim.schedule_at sim ~time:Float.nan (fun _ -> ())))

let test_compaction_reclaims_dead () =
  let sim = Sim.create () in
  let ids =
    List.init 200 (fun i ->
        Sim.schedule_at sim ~time:(float_of_int (i + 1)) (fun _ -> ()))
  in
  Alcotest.(check int) "full heap" 200 (Sim.heap_size sim);
  (* cancel 150 of 200: crosses the more-than-half threshold mid-stream *)
  List.iteri (fun i ev -> if i >= 50 then Sim.cancel sim ev) ids;
  Alcotest.(check bool) "compacted at least once" true (Sim.compactions sim >= 1);
  Alcotest.(check bool) "dead majority never persists" true
    (2 * Sim.dead_count sim <= Sim.heap_size sim);
  Alcotest.(check int) "heap holds the 50 live events plus leftovers" 50
    (Sim.heap_size sim - Sim.dead_count sim);
  Alcotest.(check bool) "heap shrank well below the naive 200" true (Sim.heap_size sim <= 100);
  Alcotest.(check int) "peak residency remembered" 200 (Sim.max_heap_size sim);
  Sim.run sim;
  Alcotest.(check int) "all live events executed" 50 (Sim.events_executed sim)

let test_no_compaction_below_size_floor () =
  (* Small heaps are not worth compacting: dead events just pop lazily. *)
  let sim = Sim.create () in
  let ids =
    List.init 20 (fun i -> Sim.schedule_at sim ~time:(float_of_int (i + 1)) (fun _ -> ()))
  in
  List.iteri (fun i ev -> if i >= 5 then Sim.cancel sim ev) ids;
  Alcotest.(check int) "no compaction under 64 slots" 0 (Sim.compactions sim);
  Alcotest.(check int) "dead events still resident" 15 (Sim.dead_count sim);
  Sim.run sim;
  Alcotest.(check int) "live events executed" 5 (Sim.events_executed sim)

(* One step of a random queue workload. Delays are whole seconds after the
   current clock, so ties are common. *)
type op =
  | Schedule of int  (** a closure event, [delay] ahead *)
  | Post of int * int  (** on the test's first or second channel, [delay] ahead *)
  | Cancel_live of int  (** the [n mod count]-th still-pending closure event *)
  | Cancel_any of int
      (** the [n mod count]-th closure handle ever issued: live, fired,
          cancelled, or stale with its slot reused *)
  | Step

let show_op = function
  | Schedule d -> Printf.sprintf "schedule +%d" d
  | Post (c, d) -> Printf.sprintf "post ch%d +%d" c d
  | Cancel_live n -> Printf.sprintf "cancel live #%d" n
  | Cancel_any n -> Printf.sprintf "cancel any #%d" n
  | Step -> "step"

(* Weighted so that most cases cross the compaction threshold (at least
   64 resident, more than half of them dead) at least once. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Schedule d) (int_bound 30));
        (2, map2 (fun c d -> Post (c, d)) (int_bound 1) (int_bound 30));
        (5, map (fun n -> Cancel_live n) nat);
        (1, map (fun n -> Cancel_any n) nat);
        (1, return Step);
      ])

(* The naive model: resident entries in a list, lazily deleted exactly as
   the simulator documents — a cancelled entry leaves when it reaches the
   front or when a compaction (at least 64 resident, more than half dead)
   drops every dead one. *)
type entry = {
  time : int;
  order : int;
  label : string;
  mutable state : [ `Pending | `Cancelled | `Done ];
}

let prop_compaction_preserves_pop_order =
  (* Random interleavings of closure events, posts on two channels, steps,
     and cancels of live, fired, cancelled and stale handles (whose slots
     often hold a newer event by then) must pop in exactly the (time,
     scheduling-order) sequence of the model, and agree with it on
     [pending], [heap_size], [dead_count] and every handle's [is_pending]
     after every operation. *)
  QCheck.Test.make ~name:"compaction preserves (time, order) pop sequence" ~count:100
    QCheck.(make ~print:(Print.list show_op) Gen.(list_size (200 -- 400) op_gen))
    (fun ops ->
      let sim = Sim.create () in
      let seen = ref [] in
      let channels =
        Array.init 2 (fun c ->
            Sim.channel sim (fun _ arg -> seen := Printf.sprintf "p%d:%d" c arg :: !seen))
      in
      let now = ref 0 and order = ref 0 and resident = ref [] and dead = ref 0 in
      let expected = ref [] in
      let handles = ref [||] in
      let add ~delay label =
        let e = { time = !now + delay; order = !order; label; state = `Pending } in
        incr order;
        resident := e :: !resident;
        e
      in
      let earliest () =
        List.fold_left
          (fun best e ->
            match best with
            | Some b when (b.time, b.order) < (e.time, e.order) -> best
            | _ -> Some e)
          None !resident
      in
      let remove e = resident := List.filter (fun x -> x != e) !resident in
      let model_step () =
        let rec drop () =
          match earliest () with
          | Some e when e.state = `Cancelled ->
              remove e;
              decr dead;
              drop ()
          | Some _ | None -> ()
        in
        drop ();
        match earliest () with
        | None -> false
        | Some e ->
            remove e;
            e.state <- `Done;
            now := e.time;
            expected := e.label :: !expected;
            true
      in
      let agrees () =
        let live = List.length (List.filter (fun e -> e.state = `Pending) !resident) in
        Sim.pending sim = live
        && Sim.heap_size sim = List.length !resident
        && Sim.dead_count sim = !dead
        && Array.for_all (fun (id, e) -> Sim.is_pending sim id = (e.state = `Pending)) !handles
        && !seen = !expected
      in
      let apply i op =
        match op with
        | Schedule delay ->
            let label = Printf.sprintf "c%d" (Array.length !handles) in
            let e = add ~delay label in
            let id =
              Sim.schedule_at sim ~time:(float_of_int e.time) (fun _ -> seen := label :: !seen)
            in
            handles := Array.append !handles [| (id, e) |]
        | Post (c, delay) ->
            let e = add ~delay (Printf.sprintf "p%d:%d" c i) in
            Sim.post sim channels.(c) ~time:(float_of_int e.time) i
        | Cancel_live n | Cancel_any n ->
            let candidates =
              match op with
              | Cancel_live _ -> List.filter (fun (_, e) -> e.state = `Pending) (Array.to_list !handles)
              | _ -> Array.to_list !handles
            in
            let count = List.length candidates in
            if count > 0 then begin
              let id, e = List.nth candidates (n mod count) in
              Sim.cancel sim id;
              if e.state = `Pending then begin
                e.state <- `Cancelled;
                incr dead;
                let size = List.length !resident in
                if size >= 64 && 2 * !dead > size then begin
                  resident := List.filter (fun e -> e.state = `Pending) !resident;
                  dead := 0
                end
              end
            end
        | Step ->
            let ran = Sim.step sim in
            if ran <> model_step () then QCheck.Test.fail_report "step disagrees"
      in
      let rec go i = function
        | [] -> true
        | op :: rest -> (
            apply i op;
            agrees () || QCheck.Test.fail_reportf "after op %d (%s)" i (show_op op))
            && go (i + 1) rest
      in
      go 0 ops
      &&
      (Sim.run sim;
       while model_step () do () done;
       agrees ()))

let test_compaction_all_dead_releases_slots () =
  (* Regression: compacting a heap whose events are ALL dead used to skip
     the slot-release pass (it was guarded by kept > 0), leaving the array
     aliasing every cancelled event — and its action closure — until the
     next grow. The storage must be dropped so the closures can be
     collected. *)
  let sim = Sim.create () in
  let payload = ref (Some (Bytes.create 1024)) in
  let weak = Weak.create 1 in
  Weak.set weak 0 !payload;
  (* Build an all-dead heap: 63 cancellations accumulate below the 64-slot
     compaction floor, then one more schedule + cancel crosses it with
     every slot dead. *)
  let ids =
    List.init 63 (fun i ->
        Sim.schedule_at sim ~time:(float_of_int (i + 1)) (fun _ -> ignore !payload))
  in
  payload := None;
  List.iter (fun ev -> Sim.cancel sim ev) ids;
  Alcotest.(check int) "dead pile below the floor" 0 (Sim.compactions sim);
  let last = Sim.schedule_at sim ~time:100. (fun _ -> ()) in
  Sim.cancel sim last;
  Alcotest.(check bool) "compacted" true (Sim.compactions sim >= 1);
  Alcotest.(check int) "no resident events" 0 (Sim.heap_size sim);
  Alcotest.(check int) "no dead leftovers" 0 (Sim.dead_count sim);
  Gc.full_major ();
  Alcotest.(check bool) "cancelled actions are collectable" false (Weak.check weak 0);
  (* The emptied heap must still grow back and run correctly. *)
  let fired = ref 0 in
  ignore (Sim.schedule_at sim ~time:500. (fun _ -> incr fired));
  Sim.run sim;
  Alcotest.(check int) "fresh event ran after all-dead compaction" 1 !fired

let test_executed_events_released () =
  (* Regression: popping an event moved the last heap element to the root
     but left the vacated slot (and slot 0, once the heap emptied) pointing
     at it, so a drained simulator kept executed events — their closures and
     everything those capture — reachable until the slots were reused. *)
  let sim = Sim.create () in
  let collected = ref 0 in
  let schedule_holding time =
    let payload = Bytes.make 256 'x' in
    Gc.finalise (fun _ -> incr collected) payload;
    ignore (Sim.schedule_at sim ~time (fun _ -> ignore (Sys.opaque_identity payload)))
  in
  List.iter schedule_holding [ 3.; 1.; 2. ];
  Sim.run sim;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "drained events' closures are collected" 3 !collected;
  (* The simulator itself is still live here, so its heap array was a root. *)
  Alcotest.(check int) "drained" 0 (Sim.heap_size sim)

let test_run_before_horizon_exclusive () =
  let sim = Sim.create () in
  let seen = ref [] in
  List.iter
    (fun time -> ignore (Sim.schedule_at sim ~time (fun _ -> seen := time :: !seen)))
    [ 1.; 2.; 3.; 4. ];
  Sim.run_before ~horizon:3. sim;
  Alcotest.(check (list (float 0.))) "events strictly below horizon ran" [ 1.; 2. ]
    (List.rev !seen);
  Alcotest.(check int) "later events untouched" 2 (Sim.pending sim);
  Sim.run_before ~until:3. ~horizon:10. sim;
  Alcotest.(check (list (float 0.))) "until is inclusive" [ 1.; 2.; 3. ] (List.rev !seen);
  Alcotest.check_raises "NaN horizon rejected"
    (Invalid_argument "Sim.run_before: NaN horizon") (fun () ->
      Sim.run_before ~horizon:Float.nan sim)

let test_advance_clock () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:5. (fun _ -> ()));
  Sim.run sim;
  Alcotest.(check (float 0.)) "clock at last event" 5. (Sim.now sim);
  Sim.advance_clock sim ~time:3.;
  Alcotest.(check (float 0.)) "never moves backward" 5. (Sim.now sim);
  Sim.advance_clock sim ~time:8.;
  Alcotest.(check (float 0.)) "jumps forward" 8. (Sim.now sim);
  ignore (Sim.schedule_at sim ~time:9. (fun _ -> ()));
  Alcotest.check_raises "cannot jump past a pending event"
    (Invalid_argument "Sim.advance_clock: pending event at 9 earlier than target 12")
    (fun () -> Sim.advance_clock sim ~time:12.);
  Sim.run sim

let test_post_rejects () =
  let sim = Sim.create () in
  let ch = Sim.channel sim (fun _ _ -> ()) in
  ignore (Sim.schedule_at sim ~time:5. ignore);
  Sim.run sim;
  Alcotest.check_raises "NaN" (Invalid_argument "Sim.post: NaN time") (fun () ->
      Sim.post sim ch ~time:Float.nan 0);
  Alcotest.check_raises "past" (Invalid_argument "Sim.post: time in the past") (fun () ->
      Sim.post sim ch ~time:4. 0);
  let out_of_range arg =
    Invalid_argument
      (Printf.sprintf "Sim.post: argument %d outside [0, %d]" arg (max_int lsr 8))
  in
  Alcotest.check_raises "negative" (out_of_range (-1)) (fun () -> Sim.post sim ch ~time:6. (-1));
  Alcotest.check_raises "too large" (out_of_range max_int) (fun () ->
      Sim.post sim ch ~time:6. max_int);
  Alcotest.(check int) "nothing queued" 0 (Sim.heap_size sim);
  Sim.post sim ch ~time:6. (max_int lsr 8);
  Alcotest.(check int) "largest argument queued" 1 (Sim.pending sim)

let test_pending_posts_are_small () =
  (* A pending post owns no heap block: its time, order and tag sit in
     three unboxed columns, which grow by doubling. *)
  let sim = Sim.create () in
  let ch = Sim.channel sim (fun _ _ -> ()) in
  let n = 100_000 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for i = 0 to n - 1 do
    Sim.post sim ch ~time:(float_of_int (i mod 1000)) i
  done;
  Gc.full_major ();
  let words = (Gc.stat ()).Gc.live_words - before in
  Alcotest.(check int) "all pending" n (Sim.pending sim);
  Alcotest.(check bool)
    (Printf.sprintf "%d live words for %d posts: at most 8 each" words n)
    true (words <= 8 * n);
  Sim.run sim

let prop_events_run_in_order =
  QCheck.Test.make ~name:"arbitrary schedules run in time order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (float_range 0. 1000.))
    (fun times ->
      let sim = Sim.create () in
      let seen = ref [] in
      List.iter
        (fun time -> ignore (Sim.schedule_at sim ~time (fun sim -> seen := Sim.now sim :: !seen)))
        times;
      Sim.run sim;
      let ordered = List.rev !seen in
      ordered = List.sort Float.compare times)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO tie-break" `Quick test_fifo_ties;
    Alcotest.test_case "relative delays nest" `Quick test_relative_delay;
    Alcotest.test_case "past times rejected" `Quick test_past_rejected;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "cancel one of many" `Quick test_cancel_one_of_many;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "actions schedule more events" `Quick test_schedule_from_action;
    Alcotest.test_case "zero-delay from action" `Quick test_same_time_as_now;
    Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
    Alcotest.test_case "compaction reclaims dead slots" `Quick test_compaction_reclaims_dead;
    Alcotest.test_case "no compaction below size floor" `Quick
      test_no_compaction_below_size_floor;
    Alcotest.test_case "all-dead compaction releases storage" `Quick
      test_compaction_all_dead_releases_slots;
    Alcotest.test_case "executed events are released" `Quick test_executed_events_released;
    Alcotest.test_case "run_before: exclusive horizon" `Quick test_run_before_horizon_exclusive;
    Alcotest.test_case "advance_clock" `Quick test_advance_clock;
    Alcotest.test_case "post: invalid arguments rejected" `Quick test_post_rejects;
    Alcotest.test_case "pending posts hold no heap block" `Quick test_pending_posts_are_small;
    QCheck_alcotest.to_alcotest prop_events_run_in_order;
    QCheck_alcotest.to_alcotest prop_compaction_preserves_pop_order;
  ]
