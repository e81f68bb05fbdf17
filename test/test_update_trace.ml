(* The rfd-trace/1 update-trace text format: exact round-trips, strict
   line-numbered parse errors, replay helpers, and the deterministic
   heavy-tailed flapper generator. *)

module Trace = Rfd_experiment.Trace

let trace_testable = Alcotest.testable Trace.pp ( = )

let check_error label expected_sub input =
  match Trace.of_string input with
  | Ok _ -> Alcotest.failf "%s: parser accepted malformed input" label
  | Error msg ->
      let contains sub =
        let n = String.length sub and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" label msg expected_sub)
        true (contains expected_sub)

let test_parse_simple () =
  let doc =
    "rfd-trace/1\n# a comment\n\n0 17 withdraw 3\n4.25 17 announce 3\n60 9 withdraw\n"
  in
  match Trace.of_string doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok events ->
      Alcotest.(check int) "three events" 3 (List.length events);
      let first = List.hd events in
      Alcotest.(check (float 0.)) "time" 0. first.Trace.time;
      Alcotest.(check int) "prefix" 17 first.Trace.prefix;
      Alcotest.(check bool) "kind" true (first.Trace.kind = Trace.Withdraw);
      Alcotest.(check (option int)) "origin" (Some 3) first.Trace.origin;
      let last = List.nth events 2 in
      Alcotest.(check (option int)) "stub origin omitted" None last.Trace.origin;
      Alcotest.(check (float 0.)) "last_time" 60. (Trace.last_time events);
      Alcotest.(check int) "max_prefix" 17 (Trace.max_prefix events);
      Alcotest.(check int) "max_origin" 3 (Trace.max_origin events)

let test_round_trip_exact () =
  (* Awkward floats on purpose: the printer must round-trip every bit. *)
  let t =
    [
      { Trace.time = 0.1; prefix = 2; kind = Trace.Withdraw; origin = Some 0 };
      { Trace.time = 1. /. 3.; prefix = 2; kind = Trace.Announce; origin = Some 0 };
      { Trace.time = 1e-9 +. 1.; prefix = 5; kind = Trace.Withdraw; origin = None };
      { Trace.time = 1234.56789012345678; prefix = 5; kind = Trace.Announce; origin = None };
    ]
  in
  Alcotest.(check (result trace_testable string))
    "of_string (to_string t) = Ok t" (Ok t)
    (Trace.of_string (Trace.to_string t))

let test_parse_errors () =
  check_error "missing header" "missing header" "";
  check_error "bad header" "bad header" "rfd-trace/2\n0 1 withdraw\n";
  check_error "bad time" "line 2: bad time" "rfd-trace/1\nsoon 1 withdraw\n";
  check_error "bad prefix" "line 2: bad prefix" "rfd-trace/1\n0 one withdraw\n";
  check_error "bad kind" "line 3: bad event kind"
    "rfd-trace/1\n0 1 withdraw\n1 1 announced\n";
  check_error "bad origin" "line 2: bad origin" "rfd-trace/1\n0 1 withdraw x\n";
  check_error "field count" "line 4: expected 3 or 4 fields"
    "rfd-trace/1\n# ok\n0 1 withdraw\n1 1 announce 2 3\n";
  (* Header is counted too: comments before it shift line numbers. *)
  check_error "line numbers skip comments" "line 4: bad time"
    "# preamble\nrfd-trace/1\n0 1 withdraw\nx 1 announce\n"

let test_validation_errors () =
  check_error "prefix 0 reserved" "prefix 0 is the measured origin prefix"
    "rfd-trace/1\n0 0 withdraw\n";
  check_error "non-decreasing times" "times must be non-decreasing"
    "rfd-trace/1\n5 1 withdraw\n4 2 withdraw\n";
  check_error "per-prefix strictly increasing" "must be strictly increasing"
    "rfd-trace/1\n5 1 withdraw\n5 1 announce\n";
  check_error "negative origin" "origin must be non-negative"
    "rfd-trace/1\n0 1 withdraw -2\n";
  Alcotest.(check bool)
    "validate rejects non-finite times" true
    (Trace.validate
       [ { Trace.time = infinity; prefix = 1; kind = Trace.Withdraw; origin = None } ]
    |> Result.is_error)

let test_pre_originations () =
  let doc =
    "rfd-trace/1\n\
     0 4 withdraw 2\n\
     1 9 announce\n\
     2 7 withdraw\n\
     3 4 announce 2\n\
     4 9 withdraw\n"
  in
  match Trace.of_string doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      (* Only prefixes opening with a withdrawal, in first-occurrence order;
         prefix 9 opens with an announcement and must not be listed. *)
      Alcotest.(check (list (pair (option int) int)))
        "withdraw-first prefixes in order"
        [ (Some 2, 4); (None, 7) ]
        (Trace.pre_originations t)

let test_flappers_shape () =
  let count = 25 and flaps = 4 and first_prefix = 11 in
  let t =
    Trace.flappers ~seed:7 ~nodes:9 ~count ~flaps ~mean_gap:30. ~alpha:1.5 ~first_prefix
  in
  Alcotest.(check int) "2 events per flap per flapper" (count * flaps * 2)
    (Trace.event_count t);
  Alcotest.(check (result unit string)) "valid by construction" (Ok ())
    (Trace.validate t);
  Alcotest.(check int) "prefixes end at first_prefix+count-1"
    (first_prefix + count - 1) (Trace.max_prefix t);
  Alcotest.(check bool) "origins within the node range" true
    (Trace.max_origin t < 9);
  Alcotest.(check int) "every flapper opens with a withdrawal" count
    (List.length (Trace.pre_originations t));
  Alcotest.(check trace_testable) "equal seed, equal trace" t
    (Trace.flappers ~seed:7 ~nodes:9 ~count ~flaps ~mean_gap:30. ~alpha:1.5
       ~first_prefix)

let test_flappers_rejects_bad_params () =
  let check_raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let gen ?(nodes = 4) ?(count = 1) ?(flaps = 1) ?(mean_gap = 10.) ?(alpha = 1.5)
      ?(first_prefix = 1) () =
    Trace.flappers ~seed:1 ~nodes ~count ~flaps ~mean_gap ~alpha ~first_prefix
  in
  check_raises "no nodes" "Trace.flappers: nodes must be positive" (gen ~nodes:0);
  check_raises "negative count" "Trace.flappers: count must be non-negative"
    (gen ~count:(-1));
  check_raises "zero flaps" "Trace.flappers: flaps must be positive" (gen ~flaps:0);
  check_raises "zero gap" "Trace.flappers: mean_gap must be positive and finite"
    (gen ~mean_gap:0.);
  check_raises "infinite alpha" "Trace.flappers: alpha must be positive and finite"
    (gen ~alpha:infinity);
  check_raises "reserved prefix" "Trace.flappers: first_prefix must be >= 1"
    (gen ~first_prefix:0)

(* A heavy tail (alpha near 0.2) takes a prefix's events past 9e12 s,
   where a degenerate gap's 1 ms bump rounds away too: the bump must
   still move the time forward, or two events of one prefix tie and the
   trace is refused. The shrunk case of a failure of the property below. *)
let test_flappers_far_times_increase () =
  let t =
    Trace.flappers ~seed:4788 ~nodes:9 ~count:14 ~flaps:3 ~mean_gap:43.5249091627
      ~alpha:0.234805752908 ~first_prefix:3
  in
  Alcotest.(check bool) "events reach past 9e12 s" true (Trace.last_time t > 9e12);
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Trace.validate t);
  Alcotest.(check bool) "round-trips through the text form" true
    (Trace.of_string (Trace.to_string t) = Ok t)

let prop_generated_traces_round_trip =
  QCheck.Test.make ~count:50 ~name:"flapper traces round-trip through the text form"
    QCheck.(
      quad (int_range 0 10000) (int_range 0 20) (int_range 1 5)
        (pair (float_range 0.5 120.) (float_range 0.2 4.)))
    (fun (seed, count, flaps, (mean_gap, alpha)) ->
      let t =
        Trace.flappers ~seed ~nodes:9 ~count ~flaps ~mean_gap ~alpha ~first_prefix:3
      in
      Trace.validate t = Ok () && Trace.of_string (Trace.to_string t) = Ok t)

let prop_junk_never_crashes =
  (* The parser's contract: any input yields Ok or Error, never an
     exception — junk lines, stray whitespace, truncated fields. *)
  QCheck.Test.make ~count:200 ~name:"parser totality on junk input"
    QCheck.(string_gen_of_size Gen.(int_range 0 120) Gen.printable)
    (fun s ->
      match Trace.of_string s with
      | Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "parse a simple trace" `Quick test_parse_simple;
    Alcotest.test_case "round-trip is bit-exact" `Quick test_round_trip_exact;
    Alcotest.test_case "parse errors carry line numbers" `Quick test_parse_errors;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "pre-originations" `Quick test_pre_originations;
    Alcotest.test_case "flapper generator shape" `Quick test_flappers_shape;
    Alcotest.test_case "flapper generator rejects bad parameters" `Quick
      test_flappers_rejects_bad_params;
    Alcotest.test_case "flapper times increase past 9e12 s" `Quick
      test_flappers_far_times_increase;
    QCheck_alcotest.to_alcotest prop_generated_traces_round_trip;
    QCheck_alcotest.to_alcotest prop_junk_never_crashes;
  ]
