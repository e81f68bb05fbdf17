(* Tests for the deterministic SplitMix64 generator. *)

module Rng = Rfd_engine.Rng

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_copy_independent () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing a does not affect b *)
  let before = Rng.copy b in
  Alcotest.(check int64) "b unaffected" (Rng.bits64 before) (Rng.bits64 b)

let test_split_diverges () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_int_invalid () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_range () =
  let rng = Rng.create 9 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0. && x < 2.5)
  done

let test_uniform () =
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:0.75 ~hi:1.0 in
    Alcotest.(check bool) "in [0.75,1)" true (x >= 0.75 && x < 1.0)
  done;
  Alcotest.(check (float 0.)) "degenerate range" 3. (Rng.uniform rng ~lo:3. ~hi:3.);
  Alcotest.check_raises "inverted range" (Invalid_argument "Rng.uniform: lo > hi") (fun () ->
      ignore (Rng.uniform rng ~lo:2. ~hi:1.))

let test_float_mean () =
  let rng = Rng.create 23 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_exponential () =
  let rng = Rng.create 29 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential rng ~mean:3.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_shuffle_permutation () =
  let rng = Rng.create 31 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_pick () =
  let rng = Rng.create 37 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.pick rng a in
    Alcotest.(check bool) "member" true (Array.exists (Int.equal x) a)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_float_refuses_non_finite () =
  let rng = Rng.create 5 in
  List.iter
    (fun (label, bound) ->
      Alcotest.check_raises label
        (Invalid_argument "Rng.float: bound must be positive and finite") (fun () ->
          ignore (Rng.float rng bound)))
    [ ("NaN bound", Float.nan); ("infinite bound", infinity); ("zero bound", 0.) ]

(* The network keeps its per-link transport streams in a column; each must
   draw exactly what a per-link [Rng.t] with the same seed would. *)
let prop_column_matches_streams =
  QCheck.Test.make ~name:"column streams draw Rng.float's sequence" ~count:200
    QCheck.(triple int (int_range 1 8) (float_range 1e-9 1e6))
    (fun (seed, n, bound) ->
      let seed_of i = seed + (i * 0x9E37_79B9) in
      let column = Rng.column n ~seed:seed_of in
      let streams = Array.init n (fun i -> Rng.create (seed_of i)) in
      (* Interleave draws across streams unevenly, as links send. *)
      List.for_all
        (fun i ->
          let i = i mod n in
          Rng.column_float column i bound = Rng.float streams.(i) bound)
        (List.init 64 (fun k -> (k * k) + (k / 3))))

let test_column_refuses_bad_input () =
  let column = Rng.column 2 ~seed:Fun.id in
  Alcotest.(check int) "length" 2 (Rng.column_length column);
  Alcotest.check_raises "NaN bound"
    (Invalid_argument "Rng.float: bound must be positive and finite") (fun () ->
      ignore (Rng.column_float column 0 Float.nan));
  Alcotest.check_raises "negative length" (Invalid_argument "Rng.column: negative length")
    (fun () -> ignore (Rng.column (-1) ~seed:Fun.id))

let prop_bool_balanced =
  QCheck.Test.make ~name:"bool roughly balanced" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let trues = ref 0 in
      for _ = 1 to 1000 do
        if Rng.bool rng then incr trues
      done;
      !trues > 350 && !trues < 650)

let suite =
  [
    Alcotest.test_case "seeded determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "uniform range" `Quick test_uniform;
    Alcotest.test_case "float mean" `Slow test_float_mean;
    Alcotest.test_case "exponential mean" `Slow test_exponential;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "pick membership" `Quick test_pick;
    QCheck_alcotest.to_alcotest prop_bool_balanced;
    Alcotest.test_case "float refuses non-finite bounds" `Quick test_float_refuses_non_finite;
    QCheck_alcotest.to_alcotest prop_column_matches_streams;
    Alcotest.test_case "column input checks" `Quick test_column_refuses_bad_input;
  ]
