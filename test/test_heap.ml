(* The simulator's event queue, driven through posts: a binary heap over
   (time, scheduling order) whose entries are three unboxed columns. *)

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
  (* Equal times pop in posting order. *)
  let sim, ch, log = make () in
  post_all sim ch [ 4; 4; 1; 4; 1 ];
  Alcotest.(check (list (pair (float 0.) int))) "dups kept, FIFO"
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

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "pops in order" `Quick test_ordering;
    Alcotest.test_case "duplicates preserved" `Quick test_duplicates;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest prop_drain_sorted;
    QCheck_alcotest.to_alcotest prop_peek_is_min;
  ]
