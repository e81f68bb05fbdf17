(* Tests for the discrete-event simulator core. *)

module Sim = Rfd_engine.Sim

let test_initial_state () =
  let sim = Sim.create () in
  Alcotest.(check (float 0.)) "clock at 0" 0. (Sim.now sim);
  Alcotest.(check int) "no pending" 0 (Sim.pending sim);
  Alcotest.(check (option (float 0.))) "no next" None (Sim.next_time sim);
  Alcotest.(check bool) "step on empty" false (Sim.step sim)

(* A simulator with [n] channels whose handlers log (channel, argument,
   time) when they run. *)
let logging n =
  let sim = Sim.create () in
  let log = ref [] in
  let channels =
    Array.init n (fun c -> Sim.channel sim (fun sim arg -> log := (c, arg, Sim.now sim) :: !log))
  in
  (sim, channels, log)

let entry = Alcotest.(triple int int (float 0.))

(* A channel whose handler ignores its argument: an event that only moves
   the clock. *)
let idle sim = Sim.channel sim (fun _ _ -> ())

let test_ordering () =
  let sim, chs, log = logging 3 in
  Sim.post sim chs.(0) ~time:3.0 0;
  Sim.post sim chs.(1) ~time:1.0 1;
  Sim.post sim chs.(2) ~time:2.0 2;
  Sim.run sim;
  Alcotest.(check (list entry)) "time order across channels"
    [ (1, 1, 1.0); (2, 2, 2.0); (0, 0, 3.0) ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 3.0 (Sim.now sim)

let test_tag_ties () =
  (* Equal times pop in ascending (argument, channel) order, whatever the
     posting order: arguments posted in descending order across two
     channels run in ascending order, and of one argument posted on both
     channels, channel 0 runs first although it was posted last. *)
  let sim, chs, log = logging 2 in
  for i = 5 downto 1 do
    Sim.post sim chs.(i mod 2) ~time:1.0 i
  done;
  Sim.post sim chs.(0) ~time:1.0 3;
  Sim.run sim;
  Alcotest.(check (list (pair int int))) "(argument, channel) order at equal times"
    [ (1, 1); (0, 2); (0, 3); (1, 3); (0, 4); (1, 5) ]
    (List.rev_map (fun (c, arg, _) -> (c, arg)) !log)

let test_relative_delay () =
  let sim = Sim.create () in
  let seen = ref [] in
  let inner = Sim.channel sim (fun sim _ -> seen := Sim.now sim :: !seen) in
  let outer =
    Sim.channel sim (fun sim _ ->
        seen := Sim.now sim :: !seen;
        Sim.post sim inner ~time:(Sim.now sim +. 2.0) 0)
  in
  Sim.post sim outer ~time:1.0 0;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "nested delays" [ 1.0; 3.0 ] (List.rev !seen)

let test_past_rejected () =
  let sim = Sim.create () in
  let ch = idle sim in
  Sim.post sim ch ~time:5.0 0;
  Sim.run sim;
  Alcotest.check_raises "past" (Invalid_argument "Sim.post: time in the past") (fun () ->
      Sim.post sim ch ~time:1.0 0);
  Alcotest.(check int) "nothing queued" 0 (Sim.heap_size sim)

let test_run_until () =
  let sim, chs, log = logging 1 in
  List.iteri (fun i time -> Sim.post sim chs.(0) ~time i) [ 1.0; 2.0; 3.0; 10.0 ];
  Sim.run ~until:5.0 sim;
  Alcotest.(check (list (float 0.))) "events up to horizon" [ 1.0; 2.0; 3.0 ]
    (List.rev_map (fun (_, _, time) -> time) !log);
  Alcotest.(check (float 0.)) "clock advanced to horizon" 5.0 (Sim.now sim);
  Alcotest.(check int) "one pending left" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (float 0.)) "resumes past horizon" 10.0 (Sim.now sim)

let test_schedule_from_action () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick =
    lazy
      (Sim.channel sim (fun sim _ ->
           incr count;
           if !count < 10 then Sim.post sim (Lazy.force tick) ~time:(Sim.now sim +. 1.0) !count))
  in
  Sim.post sim (Lazy.force tick) ~time:1.0 0;
  Sim.run sim;
  Alcotest.(check int) "chain of 10" 10 !count;
  Alcotest.(check (float 0.)) "clock" 10.0 (Sim.now sim);
  Alcotest.(check int) "executed" 10 (Sim.events_executed sim)

let test_same_time_as_now () =
  let sim = Sim.create () in
  let fired = ref false in
  let later = Sim.channel sim (fun _ _ -> fired := true) in
  let first =
    Sim.channel sim (fun sim _ ->
        (* posting at the current instant is allowed and runs after *)
        Sim.post sim later ~time:(Sim.now sim) 0)
  in
  Sim.post sim first ~time:1.0 0;
  Sim.run sim;
  Alcotest.(check bool) "zero-delay event ran" true !fired;
  Alcotest.(check (float 0.)) "at the same instant" 1.0 (Sim.now sim)

let test_nan_rejected () =
  let sim = Sim.create () in
  let ch = idle sim in
  Alcotest.check_raises "nan" (Invalid_argument "Sim.post: NaN time") (fun () ->
      Sim.post sim ch ~time:Float.nan 0)

let test_compaction_reclaims_dead () =
  let sim = Sim.create () in
  let ch = idle sim in
  for i = 0 to 199 do
    Sim.post sim ch ~time:(float_of_int (i + 1)) i
  done;
  Alcotest.(check int) "full heap" 200 (Sim.heap_size sim);
  (* retract 150 of 200: crosses the more-than-half threshold mid-stream *)
  for i = 50 to 199 do
    Sim.retract sim ch i
  done;
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
  let ch = idle sim in
  for i = 0 to 19 do
    Sim.post sim ch ~time:(float_of_int (i + 1)) i
  done;
  for i = 5 to 19 do
    Sim.retract sim ch i
  done;
  Alcotest.(check int) "no compaction under 64 slots" 0 (Sim.compactions sim);
  Alcotest.(check int) "dead events still resident" 15 (Sim.dead_count sim);
  Sim.run sim;
  Alcotest.(check int) "live events executed" 5 (Sim.events_executed sim)

(* One step of a random queue workload. Delays are whole seconds after the
   current clock, so ties are common, and arguments are few, so a channel
   often holds several posts of one argument. *)
type op =
  | Post of int * int * int  (** on the test's channel [c], [delay] ahead, of an argument *)
  | Retract of int
      (** the (channel, argument) of the [n mod live]-th live post: the
          earliest live post of that pair goes *)
  | Step

let show_op = function
  | Post (c, d, arg) -> Printf.sprintf "post ch%d +%d %d" c d arg
  | Retract n -> Printf.sprintf "retract #%d" n
  | Step -> "step"

(* Weighted so that most cases cross the compaction threshold (at least
   64 resident, more than half of them dead) at least once. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        (16, map3 (fun c d arg -> Post (c, d, arg)) (int_bound 1) (int_bound 30) (int_bound 15));
        (12, map (fun n -> Retract n) nat);
        (1, return Step);
      ])

(* The naive model: resident entries in a list, lazily deleted exactly as
   the simulator documents — a retracted entry leaves when it reaches the
   front or when a compaction (at least 64 resident, more than half dead)
   drops every dead one. Entries equal in (time, argument, channel) are
   interchangeable, and the dead ones among them are the earliest: the
   simulator counts a tag's dead posts, not which of them. *)
type entry = {
  time : int;
  channel : int;
  arg : int;
  mutable live : bool;
}

let prop_compaction_preserves_pop_order =
  (* Random interleavings of posts on two channels, steps and retractions
     must pop in exactly the (time, argument, channel) sequence of the
     model, and agree with it on [pending], [heap_size] and [dead_count]
     after every operation. As {!Sim.retract} requires, an argument is
     never posted on a channel earlier than a retracted post of it. *)
  QCheck.Test.make ~name:"compaction preserves (time, tag) pop sequence" ~count:100
    QCheck.(make ~print:(Print.list show_op) Gen.(list_size (200 -- 400) op_gen))
    (fun ops ->
      let sim, channels, seen = logging 2 in
      let now = ref 0 and resident = ref [] and dead = ref 0 in
      let floor = Array.make_matrix 2 16 0 (* latest retracted time, by tag *) in
      let expected = ref [] in
      let key e = (e.time, e.arg, e.channel, e.live) in
      let earliest keep =
        List.fold_left
          (fun best e ->
            if not (keep e) then best
            else match best with Some b when key b <= key e -> best | _ -> Some e)
          None !resident
      in
      let remove e = resident := List.filter (fun x -> x != e) !resident in
      let model_step () =
        let rec drop () =
          match earliest (fun _ -> true) with
          | Some e when not e.live ->
              remove e;
              decr dead;
              drop ()
          | Some _ | None -> ()
        in
        drop ();
        match earliest (fun _ -> true) with
        | None -> false
        | Some e ->
            remove e;
            now := e.time;
            expected := (e.channel, e.arg, float_of_int e.time) :: !expected;
            true
      in
      let agrees () =
        let live = List.length (List.filter (fun e -> e.live) !resident) in
        Sim.pending sim = live
        && Sim.heap_size sim = List.length !resident
        && Sim.dead_count sim = !dead
        && !seen = !expected
      in
      let apply op =
        match op with
        | Post (channel, delay, arg) ->
            let time = max floor.(channel).(arg) (!now + delay) in
            resident := { time; channel; arg; live = true } :: !resident;
            Sim.post sim channels.(channel) ~time:(float_of_int time) arg
        | Retract n ->
            let live = List.filter (fun e -> e.live) !resident in
            if live <> [] then begin
              let { channel; arg; _ } = List.nth live (n mod List.length live) in
              let same e = e.live && e.channel = channel && e.arg = arg in
              let e = Option.get (earliest same) in
              Sim.retract sim channels.(channel) arg;
              e.live <- false;
              floor.(channel).(arg) <- max floor.(channel).(arg) e.time;
              incr dead;
              let size = List.length !resident in
              if size >= 64 && 2 * !dead > size then begin
                resident := List.filter (fun e -> e.live) !resident;
                dead := 0
              end
            end
        | Step ->
            let ran = Sim.step sim in
            if ran <> model_step () then QCheck.Test.fail_report "step disagrees"
      in
      let rec go i = function
        | [] -> true
        | op :: rest -> (
            apply op;
            agrees () || QCheck.Test.fail_reportf "after op %d (%s)" i (show_op op))
            && go (i + 1) rest
      in
      go 0 ops
      &&
      (Sim.run sim;
       while model_step () do () done;
       agrees ()))

let test_compaction_all_dead () =
  (* A compaction of a heap whose events are all dead leaves it empty, and
     the emptied heap must still grow back and run correctly. *)
  let sim = Sim.create () in
  let ch = idle sim in
  (* 63 retractions accumulate below the 64-slot compaction floor, then
     one more post and retraction cross it with every slot dead. *)
  for i = 0 to 62 do
    Sim.post sim ch ~time:(float_of_int (i + 1)) i
  done;
  for i = 0 to 62 do
    Sim.retract sim ch i
  done;
  Alcotest.(check int) "dead pile below the floor" 0 (Sim.compactions sim);
  Sim.post sim ch ~time:100. 63;
  Sim.retract sim ch 63;
  Alcotest.(check bool) "compacted" true (Sim.compactions sim >= 1);
  Alcotest.(check int) "no resident events" 0 (Sim.heap_size sim);
  Alcotest.(check int) "no dead leftovers" 0 (Sim.dead_count sim);
  let fired = ref 0 in
  let counted = Sim.channel sim (fun _ _ -> incr fired) in
  for i = 0 to 299 do
    Sim.post sim counted ~time:(500. +. float_of_int i) i
  done;
  Alcotest.(check int) "grew past its first capacity" 300 (Sim.heap_size sim);
  Sim.run sim;
  Alcotest.(check int) "fresh events ran after all-dead compaction" 300 !fired;
  Alcotest.(check int) "only they ran" 300 (Sim.events_executed sim)

let test_run_before_horizon_exclusive () =
  let sim, chs, log = logging 1 in
  List.iteri (fun i time -> Sim.post sim chs.(0) ~time i) [ 1.; 2.; 3.; 4. ];
  let seen () = List.rev_map (fun (_, _, time) -> time) !log in
  Sim.run_before ~horizon:3. sim;
  Alcotest.(check (list (float 0.))) "events strictly below horizon ran" [ 1.; 2. ] (seen ());
  Alcotest.(check int) "later events untouched" 2 (Sim.pending sim);
  Sim.run_before ~until:3. ~horizon:10. sim;
  Alcotest.(check (list (float 0.))) "until is inclusive" [ 1.; 2.; 3. ] (seen ());
  Alcotest.check_raises "NaN horizon rejected"
    (Invalid_argument "Sim.run_before: NaN horizon") (fun () ->
      Sim.run_before ~horizon:Float.nan sim)

let test_advance_clock () =
  let sim = Sim.create () in
  let ch = idle sim in
  Sim.post sim ch ~time:5. 0;
  Sim.run sim;
  Alcotest.(check (float 0.)) "clock at last event" 5. (Sim.now sim);
  Sim.advance_clock sim ~time:3.;
  Alcotest.(check (float 0.)) "never moves backward" 5. (Sim.now sim);
  Sim.advance_clock sim ~time:8.;
  Alcotest.(check (float 0.)) "jumps forward" 8. (Sim.now sim);
  Sim.post sim ch ~time:9. 0;
  Alcotest.check_raises "cannot jump past a pending event"
    (Invalid_argument "Sim.advance_clock: pending event at 9 earlier than target 12")
    (fun () -> Sim.advance_clock sim ~time:12.);
  Sim.run sim

let test_post_rejects () =
  let sim = Sim.create () in
  let ch = idle sim in
  Sim.post sim ch ~time:5. 0;
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
  (* A pending post owns no heap block: its time and tag sit in two
     unboxed columns, which grow by doubling, so 100,000 posts fill
     131,072 rows of two words. A third column would pass 3 words a post. *)
  let sim = Sim.create () in
  let ch = idle sim in
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
    (Printf.sprintf "%d live words for %d posts: at most 3 each" words n)
    true (words <= 3 * n);
  Sim.run sim

let test_channel_cap () =
  (* 256 channels, numbered 0 to 255, fit the tag's 8 channel bits; the
     next is refused, and the last one registered still works. *)
  let sim = Sim.create () in
  let chs = Array.init 256 (fun _ -> idle sim) in
  Alcotest.check_raises "257th channel" (Invalid_argument "Sim.channel: at most 256 channels")
    (fun () -> ignore (idle sim));
  Sim.post sim chs.(0) ~time:1. Sim.max_arg;
  Sim.post sim chs.(255) ~time:2. Sim.max_arg;
  Sim.run sim;
  Alcotest.(check int) "first channel ran" 1 (Sim.channel_events sim chs.(0));
  Alcotest.(check int) "last channel ran" 1 (Sim.channel_events sim chs.(255));
  Alcotest.(check int) "nothing else ran" 2 (Sim.events_executed sim)

let prop_events_run_in_order =
  QCheck.Test.make ~name:"arbitrary schedules run in time order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 2) (float_range 0. 1000.)))
    (fun posts ->
      let sim, chs, log = logging 3 in
      List.iteri (fun i (c, time) -> Sim.post sim chs.(c) ~time i) posts;
      Sim.run sim;
      let ordered = List.rev_map (fun (_, _, time) -> time) !log in
      ordered = List.sort Float.compare (List.map snd posts))

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "equal times pop in tag order" `Quick test_tag_ties;
    Alcotest.test_case "relative delays nest" `Quick test_relative_delay;
    Alcotest.test_case "past times rejected" `Quick test_past_rejected;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "actions schedule more events" `Quick test_schedule_from_action;
    Alcotest.test_case "zero-delay from action" `Quick test_same_time_as_now;
    Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
    Alcotest.test_case "compaction reclaims dead slots" `Quick test_compaction_reclaims_dead;
    Alcotest.test_case "no compaction below size floor" `Quick
      test_no_compaction_below_size_floor;
    Alcotest.test_case "all-dead compaction empties the heap" `Quick test_compaction_all_dead;
    Alcotest.test_case "run_before: exclusive horizon" `Quick test_run_before_horizon_exclusive;
    Alcotest.test_case "advance_clock" `Quick test_advance_clock;
    Alcotest.test_case "post: invalid arguments rejected" `Quick test_post_rejects;
    Alcotest.test_case "pending posts hold no heap block" `Quick test_pending_posts_are_small;
    Alcotest.test_case "channel cap" `Quick test_channel_cap;
    QCheck_alcotest.to_alcotest prop_events_run_in_order;
    QCheck_alcotest.to_alcotest prop_compaction_preserves_pop_order;
  ]
