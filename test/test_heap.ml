(* The simulator's event queue, driven through posts: a binary heap over
   (time, tag) whose entries are two unboxed columns. *)

module Sim = Rfd_engine.Sim

(* A simulator with one channel whose handler logs (time, argument). *)
let make () =
  let sim = Sim.create () in
  let log = ref [] in
  let ch = Sim.channel sim (fun sim arg -> log := (Sim.now sim, arg) :: !log) in
  (sim, ch, log)

(* Post every time, with its index as the argument. *)
let post_all sim ch times =
  List.iteri (fun i time -> Sim.post sim ch ~time:(float_of_int time) i) times

let drain sim log =
  Sim.run sim;
  List.rev !log

let test_empty () =
  let sim = Sim.create () in
  Alcotest.(check int) "heap_size" 0 (Sim.heap_size sim);
  Alcotest.(check int) "pending" 0 (Sim.pending sim);
  Alcotest.(check (option (float 0.))) "next_time" None (Sim.next_time sim);
  Alcotest.(check bool) "step" false (Sim.step sim)

let test_singleton () =
  let sim, ch, log = make () in
  Sim.post sim ch ~time:42. 7;
  Alcotest.(check (option (float 0.))) "next_time" (Some 42.) (Sim.next_time sim);
  Alcotest.(check int) "heap_size" 1 (Sim.heap_size sim);
  Alcotest.(check bool) "step" true (Sim.step sim);
  Alcotest.(check (list (pair (float 0.) int))) "delivered" [ (42., 7) ] !log;
  Alcotest.(check int) "empty again" 0 (Sim.heap_size sim)

let test_ordering () =
  let sim, ch, log = make () in
  post_all sim ch [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list (float 0.))) "sorted drain" [ 1.; 2.; 3.; 5.; 7.; 8.; 9. ]
    (List.map fst (drain sim log))

let test_duplicates () =
  (* Equal times pop in argument order; here each argument is its post's
     index. *)
  let sim, ch, log = make () in
  post_all sim ch [ 4; 4; 1; 4; 1 ];
  Alcotest.(check (list (pair (float 0.) int))) "dups kept, by argument"
    [ (1., 2); (1., 4); (4., 0); (4., 1); (4., 3) ]
    (drain sim log)

let test_interleaved () =
  let sim, ch, log = make () in
  let pop () =
    ignore (Sim.step sim);
    fst (List.hd !log)
  in
  Sim.post sim ch ~time:10. 0;
  Sim.post sim ch ~time:5. 1;
  Alcotest.(check (float 0.)) "min first" 5. (pop ());
  Sim.post sim ch ~time:7. 2;
  Sim.post sim ch ~time:20. 3;
  Alcotest.(check (float 0.)) "new min" 7. (pop ());
  Alcotest.(check (float 0.)) "then 10" 10. (pop ());
  Alcotest.(check (float 0.)) "then 20" 20. (pop ())

let prop_drain_sorted =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let sim, ch, log = make () in
      post_all sim ch times;
      let expected =
        List.mapi (fun i time -> (float_of_int time, i)) times
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      drain sim log = expected)

let prop_peek_is_min =
  QCheck.Test.make ~name:"peek is minimum" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 1_000_000))
    (fun times ->
      let sim, ch, _ = make () in
      post_all sim ch times;
      Sim.next_time sim = Some (float_of_int (List.fold_left min max_int times)))

let ignore2 _ _ = ()

(* A retracted post is dropped: it does not run, count, or move the clock,
   and of several posts of one argument the earliest goes. *)
let test_retract () =
  let sim, ch, log = make () in
  Sim.post sim ch ~time:3. 5;
  Sim.post sim ch ~time:3. 5;
  Sim.post sim ch ~time:2. 6;
  Sim.retract sim ch 5;
  Alcotest.(check int) "pending" 2 (Sim.pending sim);
  Alcotest.(check int) "dead" 1 (Sim.dead_count sim);
  Alcotest.(check (list (pair (float 0.) int))) "the other post of 5 runs"
    [ (2., 6); (3., 5) ] (drain sim log);
  Alcotest.(check int) "executed" 2 (Sim.events_executed sim);
  Alcotest.(check int) "by channel" 2 (Sim.channel_events sim ch);
  Alcotest.(check int) "dead dropped" 0 (Sim.dead_count sim);
  (* A retracted last event leaves the clock where it was. *)
  Sim.post sim ch ~time:9. 1;
  Sim.retract sim ch 1;
  Sim.run sim;
  Alcotest.(check (float 0.)) "clock unmoved" 3. (Sim.now sim);
  Alcotest.(check int) "not executed" 2 (Sim.events_executed sim);
  Alcotest.(check int) "heap empty" 0 (Sim.heap_size sim);
  let other = Sim.create () in
  ignore (Sim.channel other ignore2);
  let foreign = Sim.channel other ignore2 in
  Alcotest.check_raises "unknown channel" (Invalid_argument "Sim.retract: unknown channel")
    (fun () -> Sim.retract sim foreign 1)

type op = Post of int * int | Retract of int | Step

(* Random posts (few distinct arguments, so they repeat), retractions and
   steps, checked against a list model kept in (time, argument) order — the
   heap's (time, tag) order on one channel — in which a retraction removes
   the argument's earliest live post. Dense retraction forces compactions.
   As {!Sim.retract} requires, an argument is never posted earlier than one
   of its retracted posts. *)
let prop_retract_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun dt arg -> Post (dt, arg)) (int_bound 20) (int_bound 5));
          (4, map (fun arg -> Retract arg) (int_bound 5));
          (1, return Step);
        ])
  in
  QCheck.Test.make ~name:"retract matches a list model, through compaction" ~count:200
    QCheck.(make Gen.(list_size (100 -- 400) op))
    (fun ops ->
      let sim, ch, log = make () in
      let model = ref [] (* (time, arg), ascending *) in
      let floor = Array.make 6 0. (* by argument: latest retracted time *) in
      let expected = ref [] in
      let pop_model () =
        match !model with
        | (time, arg) :: rest ->
            model := rest;
            expected := (time, arg) :: !expected
        | [] -> ()
      in
      List.iter
        (function
          | Post (dt, arg) ->
              let time = Float.max floor.(arg) (Sim.now sim +. float_of_int dt) in
              Sim.post sim ch ~time arg;
              model := List.merge compare !model [ (time, arg) ]
          | Retract arg ->
              if List.exists (fun (_, a) -> a = arg) !model then begin
                Sim.retract sim ch arg;
                let rec remove = function
                  | ((time, a) as e) :: rest ->
                      if a = arg then begin
                        floor.(arg) <- Float.max floor.(arg) time;
                        rest
                      end
                      else e :: remove rest
                  | [] -> []
                in
                model := remove !model
              end
          | Step ->
              ignore (Sim.step sim);
              pop_model ())
        ops;
      let pending_ok = Sim.pending sim = List.length !model in
      while !model <> [] do
        pop_model ()
      done;
      let got = drain sim log in
      pending_ok
      && got = List.rev !expected
      && Sim.events_executed sim = List.length got
      && Sim.heap_size sim = 0 && Sim.dead_count sim = 0)

let test_retract_compacts () =
  let sim, ch, log = make () in
  for i = 0 to 99 do
    Sim.post sim ch ~time:(float_of_int (i mod 10)) (i mod 4)
  done;
  for _ = 1 to 25 do
    List.iter (Sim.retract sim ch) [ 1; 2; 3 ]
  done;
  Alcotest.(check bool) "compacted" true (Sim.compactions sim > 0);
  Alcotest.(check int) "pending" 25 (Sim.pending sim);
  let got = drain sim log in
  Alcotest.(check (list int)) "only 0 is left" (List.init 25 (fun _ -> 0)) (List.map snd got);
  Alcotest.(check (list (float 0.))) "in time order"
    (List.sort Float.compare (List.map fst got))
    (List.map fst got)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "pops in order" `Quick test_ordering;
    Alcotest.test_case "duplicates preserved" `Quick test_duplicates;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest prop_drain_sorted;
    QCheck_alcotest.to_alcotest prop_peek_is_min;
    Alcotest.test_case "retracted posts are dropped" `Quick test_retract;
    QCheck_alcotest.to_alcotest prop_retract_model;
    Alcotest.test_case "retraction triggers compaction" `Quick test_retract_compacts;
  ]
