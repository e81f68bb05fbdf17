(* Multi-origin workloads through the runner: a [Replay] of the trace a
   [Flappers] workload expands to is the same simulation, heavy-traffic
   results stay bit-identical across worker and partition counts, and
   invalid workloads are rejected eagerly. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Sweep = Rfd_experiment.Sweep
module Trace = Rfd_experiment.Trace
open Rfd_bgp

let small_mesh = Scenario.Mesh { rows = 3; cols = 3 }

let fast_config ?(seed = 42) () =
  let base =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed }
  in
  Config.with_damping Rfd_damping.Params.cisco base

let background = 5
let flapper_params = (8, 2, 5., 1.5, 3) (* count, flaps, mean_gap, alpha, seed *)

let flappers_workload =
  let count, flaps, mean_gap, alpha, seed = flapper_params in
  Scenario.Flappers { count; flaps; mean_gap; alpha; seed }

let flappers_trace () =
  (* Exactly what the runner expands [flappers_workload] to on a 3x3 mesh:
     9 candidate home nodes, flapper prefixes right above the background. *)
  let count, flaps, mean_gap, alpha, seed = flapper_params in
  Trace.flappers ~seed ~nodes:9 ~count ~flaps ~mean_gap ~alpha
    ~first_prefix:(background + 1)

let scenario_with workload =
  Scenario.make ~name:"workload" ~config:(fast_config ())
    ~background_prefixes:background ~workload small_mesh

(* Scenario records differ between a [Replay] and the [Flappers] it expands
   from, and the scenario is part of the digest — so equivalence is asserted
   on results re-keyed to one common scenario. *)
let digest_normalized r =
  Runner.result_digest { r with Runner.scenario = scenario_with Scenario.Pulses_only }

let test_replay_equals_flappers () =
  let symbolic = Runner.run (scenario_with flappers_workload) in
  let replayed = Runner.run (scenario_with (Scenario.Replay (flappers_trace ()))) in
  Alcotest.(check bool)
    "raw digests differ (scenario is keyed)" true
    (Runner.result_digest symbolic <> Runner.result_digest replayed);
  Alcotest.(check string) "identical simulation modulo scenario"
    (digest_normalized symbolic) (digest_normalized replayed)

let test_workload_jobs_invariant () =
  let pulses = [ 1; 2; 3 ] in
  let fingerprint jobs =
    let sweep = Sweep.run ~pulses ~jobs (scenario_with flappers_workload) in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: all points clean" jobs)
      (List.length pulses)
      (List.length sweep.Sweep.points);
    List.map
      (fun p -> (p.Sweep.pulses, Runner.result_digest p.Sweep.result))
      sweep.Sweep.points
  in
  Alcotest.(check (list (pair int string)))
    "heavy-traffic sweep is jobs-invariant" (fingerprint 1) (fingerprint 4)

let test_workload_partitions_invariant () =
  List.iter
    (fun (label, workload) ->
      let scenario = scenario_with workload in
      let digest_at partitions =
        let result, _ = Runner.run_partitioned ~partitions scenario in
        Runner.result_digest result
      in
      let d1 = digest_at 1 in
      Alcotest.(check string)
        (label ^ ": digest partitions=1 vs 2")
        d1 (digest_at 2))
    [
      ("flappers", flappers_workload);
      ("replay", Scenario.Replay (flappers_trace ()));
    ]

let test_make_rejects_bad_workloads () =
  let check_raises name msg workload =
    Alcotest.check_raises name (Invalid_argument ("Scenario.make: " ^ msg)) (fun () ->
        ignore (scenario_with workload))
  in
  check_raises "negative flapper count" "flapper count must be non-negative (got -1)"
    (Scenario.Flappers { count = -1; flaps = 1; mean_gap = 5.; alpha = 1.5; seed = 0 });
  check_raises "zero flaps" "flaps per flapper must be positive (got 0)"
    (Scenario.Flappers { count = 1; flaps = 0; mean_gap = 5.; alpha = 1.5; seed = 0 });
  check_raises "bad mean gap" "flapper mean_gap must be positive and finite (got inf)"
    (Scenario.Flappers
       { count = 1; flaps = 1; mean_gap = infinity; alpha = 1.5; seed = 0 });
  check_raises "bad alpha" "flapper alpha must be positive and finite (got 0)"
    (Scenario.Flappers { count = 1; flaps = 1; mean_gap = 5.; alpha = 0.; seed = 0 });
  check_raises "background collision"
    (Printf.sprintf
       "replay trace prefix %d collides with the background range 1..%d (use prefixes \
        >= %d)"
       background background (background + 1))
    (Scenario.Replay
       [ { Trace.time = 0.; prefix = background; kind = Trace.Withdraw; origin = None } ]);
  check_raises "origin out of range"
    "replay trace origin 9 is out of range for a 9-node topology"
    (Scenario.Replay
       [
         { Trace.time = 0.; prefix = background + 1; kind = Trace.Withdraw; origin = Some 9 };
       ]);
  check_raises "structurally invalid trace"
    "replay event 1: prefix must be >= 1 (got 0; prefix 0 is the measured origin prefix)"
    (Scenario.Replay
       [ { Trace.time = 0.; prefix = 0; kind = Trace.Withdraw; origin = None } ])

let test_validate_checks_hand_built_workloads () =
  (* Records built via [{ s with ... }] bypass [make]; [validate] must
     still reject their workloads. *)
  let bad =
    {
      (scenario_with Scenario.Pulses_only) with
      Scenario.workload =
        Scenario.Flappers { count = 1; flaps = 0; mean_gap = 5.; alpha = 1.5; seed = 0 };
    }
  in
  (match Scenario.validate bad with
  | Error e ->
      Alcotest.(check string) "flaps rejected by validate"
        "flaps per flapper must be positive (got 0)" e
  | Ok () -> Alcotest.fail "validate accepted a zero-flap workload");
  Alcotest.(check (result unit string))
    "valid workload passes validate" (Ok ())
    (Scenario.validate (scenario_with flappers_workload))

(* A router keeps a dense RIB slot per prefix id up to the largest it
   sees, so a trace naming prefix 4,000,000,000 used to run out of memory
   building the first router's columns. Every source of prefix ids is held
   to one cap, before any network is built. *)
let test_prefix_id_cap () =
  let trace =
    match Trace.of_string "rfd-trace/1\n1 4000000000 withdraw 4\n2 4000000000 announce 4\n" with
    | Ok trace -> trace
    | Error e -> Alcotest.failf "trace refused: %s" e
  in
  let cap = Scenario.max_prefix_id in
  let refused what = Printf.sprintf "%s exceeds the prefix id cap %d" what cap in
  Alcotest.(check int) "the cap is 2^20" 1_048_576 cap;
  Alcotest.check_raises "make refuses the trace"
    (Invalid_argument ("Scenario.make: " ^ refused "replay trace prefix 4000000000"))
    (fun () -> ignore (scenario_with (Scenario.Replay trace)));
  (* The CLI swaps a replay workload into a built scenario, so [validate]
     is what refuses it there. *)
  let hand_built workload =
    { (scenario_with Scenario.Pulses_only) with Scenario.workload = workload }
  in
  Alcotest.(check (result unit string)) "validate refuses the trace"
    (Error (refused "replay trace prefix 4000000000"))
    (Scenario.validate (hand_built (Scenario.Replay trace)));
  let with_background n workload =
    { (hand_built workload) with Scenario.background_prefixes = n }
  in
  Alcotest.(check (result unit string)) "background prefixes up to the cap pass" (Ok ())
    (Scenario.validate (with_background cap Scenario.Pulses_only));
  Alcotest.(check (result unit string)) "one more is refused"
    (Error (refused (Printf.sprintf "background prefix %d" (cap + 1))))
    (Scenario.validate (with_background (cap + 1) Scenario.Pulses_only));
  Alcotest.(check (result unit string)) "so is a flapper past it"
    (Error
       (refused
          (Printf.sprintf "the last of 8 flapper prefixes above %d background prefixes" (cap - 7))))
    (Scenario.validate (with_background (cap - 7) flappers_workload))

let suite =
  [
    Alcotest.test_case "replay of expanded flappers is the same run" `Quick
      test_replay_equals_flappers;
    Alcotest.test_case "heavy-traffic sweep is jobs-invariant" `Quick
      test_workload_jobs_invariant;
    Alcotest.test_case "workloads are partition-count-invariant" `Quick
      test_workload_partitions_invariant;
    Alcotest.test_case "make rejects bad workloads eagerly" `Quick
      test_make_rejects_bad_workloads;
    Alcotest.test_case "validate checks hand-built workloads" `Quick
      test_validate_checks_hand_built_workloads;
    Alcotest.test_case "prefix ids are capped" `Quick test_prefix_id_cap;
  ]
