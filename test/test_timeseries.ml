(* Tests for time-series collection and binning. *)

module Ts = Rfd_engine.Timeseries

let mk samples =
  let ts = Ts.create () in
  List.iter (fun (time, v) -> Ts.add ts ~time v) samples;
  ts

let fpair = Alcotest.(pair (float 1e-9) (float 1e-9))

let test_empty () =
  let ts = Ts.create () in
  Alcotest.(check int) "length" 0 (Ts.length ts);
  Alcotest.(check bool) "is_empty" true (Ts.is_empty ts);
  Alcotest.(check (option fpair)) "last" None (Ts.last ts);
  Alcotest.(check (option fpair)) "first" None (Ts.first ts);
  Alcotest.(check (option (float 0.))) "value_at" None (Ts.value_at ts 1.0);
  Alcotest.(check (option (float 0.))) "max" None (Ts.max_value ts)

let test_append_and_access () =
  let ts = mk [ (1., 10.); (2., 20.); (3., 15.) ] in
  Alcotest.(check int) "length" 3 (Ts.length ts);
  Alcotest.(check (option fpair)) "first" (Some (1., 10.)) (Ts.first ts);
  Alcotest.(check (option fpair)) "last" (Some (3., 15.)) (Ts.last ts);
  Alcotest.(check (option (float 0.))) "max" (Some 20.) (Ts.max_value ts);
  Alcotest.(check (option (float 0.))) "min" (Some 10.) (Ts.min_value ts)

let test_set_level () =
  (* One sample per instant: a same-time level replaces the last sample. *)
  let ts = Ts.create () in
  Ts.set_level ts ~time:1. 1.;
  Ts.set_level ts ~time:1. 2.;
  Ts.set_level ts ~time:2. 1.;
  Ts.set_level ts ~time:2. 0.;
  Alcotest.(check (array fpair)) "last value per instant" [| (1., 2.); (2., 0.) |] (Ts.points ts);
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Timeseries.add: samples must be time-ordered") (fun () ->
      Ts.set_level ts ~time:1.5 3.)

let test_ordering_enforced () =
  let ts = mk [ (5., 1.) ] in
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Timeseries.add: samples must be time-ordered") (fun () ->
      Ts.add ts ~time:4. 2.);
  (* equal times are fine *)
  Ts.add ts ~time:5. 3.;
  Alcotest.(check int) "equal time ok" 2 (Ts.length ts)

let test_value_at () =
  let ts = mk [ (1., 10.); (3., 30.); (5., 50.) ] in
  Alcotest.(check (option (float 0.))) "before first" None (Ts.value_at ts 0.5);
  Alcotest.(check (option (float 0.))) "exact" (Some 10.) (Ts.value_at ts 1.0);
  Alcotest.(check (option (float 0.))) "between" (Some 10.) (Ts.value_at ts 2.9);
  Alcotest.(check (option (float 0.))) "at second" (Some 30.) (Ts.value_at ts 3.0);
  Alcotest.(check (option (float 0.))) "after last" (Some 50.) (Ts.value_at ts 99.)

let test_bin_sum () =
  let ts = mk [ (0., 1.); (1., 1.); (4.9, 1.); (5., 1.); (12., 2.) ] in
  let bins = Ts.bin_sum ts ~width:5. ~t0:0. ~t1:15. in
  Alcotest.(check int) "bin count" 3 (Array.length bins);
  Alcotest.check fpair "bin 0" (0., 3.) bins.(0);
  Alcotest.check fpair "bin 1" (5., 1.) bins.(1);
  Alcotest.check fpair "bin 2" (10., 2.) bins.(2)

let test_bin_sum_excludes_outside () =
  let ts = mk [ (0., 1.); (10., 1.); (20., 1.) ] in
  let bins = Ts.bin_sum ts ~width:5. ~t0:5. ~t1:15. in
  let total = Array.fold_left (fun acc (_, v) -> acc +. v) 0. bins in
  Alcotest.(check (float 0.)) "only middle sample" 1. total

let test_bin_last () =
  let ts = mk [ (2., 5.); (7., 3.) ] in
  let bins = Ts.bin_last ts ~width:5. ~t0:0. ~t1:15. in
  Alcotest.check fpair "gauge in bin 0" (0., 5.) bins.(0);
  Alcotest.check fpair "gauge in bin 1" (5., 3.) bins.(1);
  Alcotest.check fpair "gauge holds" (10., 3.) bins.(2)

let test_bin_validation () =
  let ts = mk [ (0., 1.) ] in
  Alcotest.check_raises "bad width" (Invalid_argument "Timeseries: bin width must be positive")
    (fun () -> ignore (Ts.bin_sum ts ~width:0. ~t0:0. ~t1:1.));
  Alcotest.check_raises "bad range" (Invalid_argument "Timeseries: t1 < t0") (fun () ->
      ignore (Ts.bin_sum ts ~width:1. ~t0:2. ~t1:1.))

let test_iter_fold () =
  let ts = mk [ (1., 2.); (2., 3.) ] in
  let sum = Ts.fold ts ~init:0. ~f:(fun acc ~time:_ ~value -> acc +. value) in
  Alcotest.(check (float 0.)) "fold" 5. sum;
  let count = ref 0 in
  Ts.iter ts (fun ~time:_ ~value:_ -> incr count);
  Alcotest.(check int) "iter" 2 !count

let test_csv () =
  let ts = mk [ (1., 2.) ] in
  Alcotest.(check string) "csv" "time,value\n1,2\n" (Ts.to_csv ts)

let test_points_fresh () =
  let ts = mk [ (1., 2.) ] in
  let p = Ts.points ts in
  p.(0) <- (9., 9.);
  Alcotest.(check (option fpair)) "not aliased" (Some (1., 2.)) (Ts.first ts)

let prop_value_at_matches_linear_scan =
  QCheck.Test.make ~name:"value_at = linear scan" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_range 0. 100.)) (float_range (-10.) 110.))
    (fun (times, query) ->
      let times = List.sort Float.compare times in
      let ts = Ts.create () in
      List.iteri (fun i time -> Ts.add ts ~time (float_of_int i)) times;
      let expected =
        List.fold_left2
          (fun acc time v -> if time <= query then Some v else acc)
          None times
          (List.mapi (fun i _ -> float_of_int i) times)
      in
      Ts.value_at ts query = expected)

let prop_bin_sum_total =
  QCheck.Test.make ~name:"bin_sum conserves in-range mass" ~count:200
    QCheck.(list_of_size Gen.(0 -- 50) (float_range 0. 99.))
    (fun times ->
      let times = List.sort Float.compare times in
      let ts = Ts.create () in
      List.iter (fun time -> Ts.add ts ~time 1.) times;
      let bins = Ts.bin_sum ts ~width:7. ~t0:0. ~t1:100. in
      let total = Array.fold_left (fun acc (_, v) -> acc +. v) 0. bins in
      int_of_float total = List.length times)

let test_times () =
  (* Past the 64-sample initial capacity, so growth has left spare room. *)
  let ts = mk (List.init 100 (fun i -> (float_of_int (i / 3), float_of_int i))) in
  Alcotest.(check (array (float 0.))) "times = map fst points"
    (Array.map fst (Ts.points ts)) (Ts.times ts);
  Alcotest.(check (array (float 0.))) "empty" [||] (Ts.times (Ts.create ()))

let test_trim () =
  let ts = mk (List.init 100 (fun i -> (float_of_int i, float_of_int (i * i)))) in
  let before = Ts.points ts in
  Ts.trim ts;
  Alcotest.(check (array fpair)) "trim keeps points" before (Ts.points ts);
  Ts.trim ts;
  Alcotest.(check (array fpair)) "trim is idempotent" before (Ts.points ts);
  Ts.add ts ~time:100. 1.;
  Ts.add ts ~time:101. 2.;
  Alcotest.(check int) "add grows a trimmed series" 102 (Ts.length ts);
  Alcotest.(check (option fpair)) "last after add" (Some (101., 2.)) (Ts.last ts);
  Alcotest.(check (array fpair)) "earlier samples intact" before
    (Array.sub (Ts.points ts) 0 100);
  let empty = Ts.create () in
  Ts.trim empty;
  Ts.add empty ~time:1. 1.;
  Alcotest.(check (array fpair)) "trimmed empty series accepts adds" [| (1., 1.) |]
    (Ts.points empty)

let suite =
  [
    Alcotest.test_case "empty series" `Quick test_empty;
    Alcotest.test_case "append and access" `Quick test_append_and_access;
    Alcotest.test_case "ordering enforced" `Quick test_ordering_enforced;
    Alcotest.test_case "set_level keeps one sample per instant" `Quick test_set_level;
    Alcotest.test_case "value_at step lookup" `Quick test_value_at;
    Alcotest.test_case "bin_sum" `Quick test_bin_sum;
    Alcotest.test_case "bin_sum range filter" `Quick test_bin_sum_excludes_outside;
    Alcotest.test_case "bin_last gauge" `Quick test_bin_last;
    Alcotest.test_case "bin validation" `Quick test_bin_validation;
    Alcotest.test_case "iter and fold" `Quick test_iter_fold;
    Alcotest.test_case "csv output" `Quick test_csv;
    Alcotest.test_case "points returns a copy" `Quick test_points_fresh;
    Alcotest.test_case "times matches points" `Quick test_times;
    Alcotest.test_case "trim keeps points, add still works" `Quick test_trim;
    QCheck_alcotest.to_alcotest prop_value_at_matches_linear_scan;
    QCheck_alcotest.to_alcotest prop_bin_sum_total;
  ]
