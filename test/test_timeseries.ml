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

(* [75.89 /. (75.89 /. 37.)] is 37.000000000000007: rounding up would
   give a 38th bin starting one ulp below [t1]. A sample in the sliver
   between the 37th bin's end and [t1] still counts, in the last bin. *)
let test_bin_count_rounding () =
  let t1 = 75.89 in
  let width = t1 /. 37. in
  let below = Float.pred t1 in
  let ts = mk [ (1., 1.); (75., 2.); (below, 4.) ] in
  let sums = Ts.bin_sum ts ~width ~t0:0. ~t1 in
  Alcotest.(check int) "bin_sum: 37 bins" 37 (Array.length sums);
  Alcotest.(check (float 0.)) "first bin" 1. (snd sums.(0));
  Alcotest.(check (float 0.)) "last bin" 6. (snd sums.(36));
  Alcotest.(check int) "bin_times: 37 bins" 37
    (Array.length (Ts.bin_times [| 1.; below |] ~width ~t0:0. ~t1));
  let levels = Ts.bin_last ts ~width ~t0:0. ~t1 in
  Alcotest.(check int) "bin_last: 37 bins" 37 (Array.length levels);
  Alcotest.(check (float 0.)) "last level" 4. (snd levels.(36))

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

(* A bare time column bins exactly like a series of unit samples, float
   sums included. *)
let prop_bin_times_matches_bin_sum =
  QCheck.Test.make ~name:"bin_times = bin_sum of unit samples" ~count:200
    QCheck.(list_of_size Gen.(0 -- 150) (float_range (-5.) 105.))
    (fun times ->
      let times = Array.of_list (List.sort Float.compare times) in
      let ts = Ts.create () in
      Array.iter (fun time -> Ts.add ts ~time 1.) times;
      Ts.bin_times times ~width:7. ~t0:0. ~t1:100. = Ts.bin_sum ts ~width:7. ~t0:0. ~t1:100.)

(* A series longer than one 8,192-cell chunk (and, past 16,384 samples,
   two) reads like the same samples in plain arrays, before and after a
   trim and after adds past the trim. *)
let prop_long_series_matches_arrays =
  QCheck.Test.make ~name:"long series = plain-array reference" ~count:12
    QCheck.(make Gen.(pair (int_range 8200 20000) small_nat))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let times = Array.make n 0. and values = Array.make n 0. in
      for i = 0 to n - 1 do
        let gap = if Random.State.int rng 4 = 0 then 0. else Random.State.float rng 2. in
        times.(i) <- (if i = 0 then 0. else times.(i - 1) +. gap);
        values.(i) <- Random.State.float rng 10.
      done;
      let value_at at =
        let v = ref None in
        Array.iteri (fun i time -> if time <= at then v := Some values.(i)) times;
        !v
      in
      let t1 = times.(n - 1) +. 3. in
      let width = t1 /. 37. in
      let bin_sum () =
        let sums = Array.make 37 0. in
        Array.iteri
          (fun i time ->
            let b = int_of_float (time /. width) in
            if b < 37 then sums.(b) <- sums.(b) +. values.(i))
          times;
        Array.mapi (fun b sum -> (float_of_int b *. width, sum)) sums
      in
      let bin_last () =
        Array.init 37 (fun b ->
            let start = float_of_int b *. width in
            (start, Option.value ~default:0. (value_at (start +. width))))
      in
      let queries = Array.init 50 (fun _ -> Random.State.float rng (t1 +. 2.) -. 1.) in
      let matches ts =
        Ts.points ts = Array.map2 (fun t v -> (t, v)) times values
        && Array.for_all (fun at -> Ts.value_at ts at = value_at at) queries
        && Array.for_all
             (fun i -> Ts.value_at ts times.(i) = value_at times.(i))
             [| 0; 8191; 8192; n - 1 |]
        && Ts.bin_sum ts ~width ~t0:0. ~t1 = bin_sum ()
        && Ts.bin_last ts ~width ~t0:0. ~t1 = bin_last ()
      in
      let ts = Ts.create () in
      Array.iteri (fun i time -> Ts.add ts ~time values.(i)) times;
      let before = matches ts in
      Ts.trim ts;
      let trimmed = matches ts in
      Ts.add ts ~time:t1 1.;
      before && trimmed && Ts.length ts = n + 1 && Ts.last ts = Some (t1, 1.))

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
    Alcotest.test_case "bin count ignores a rounding excess" `Quick test_bin_count_rounding;
    Alcotest.test_case "bin validation" `Quick test_bin_validation;
    Alcotest.test_case "iter and fold" `Quick test_iter_fold;
    Alcotest.test_case "csv output" `Quick test_csv;
    Alcotest.test_case "points returns a copy" `Quick test_points_fresh;
    Alcotest.test_case "trim keeps points, add still works" `Quick test_trim;
    QCheck_alcotest.to_alcotest prop_value_at_matches_linear_scan;
    QCheck_alcotest.to_alcotest prop_bin_sum_total;
    QCheck_alcotest.to_alcotest prop_bin_times_matches_bin_sum;
    QCheck_alcotest.to_alcotest prop_long_series_matches_arrays;
  ]
