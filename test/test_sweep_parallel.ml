(* Tests for the declarative sweep job layer: plan shape, topology
   memoization, and jobs=1 vs jobs=N determinism. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Sweep = Rfd_experiment.Sweep
module Summary = Rfd_engine.Stats.Summary
open Rfd_bgp

let small_mesh = Scenario.Mesh { rows = 3; cols = 3 }

let fast_config ?(damping = true) ?(seed = 42) () =
  let base =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed }
  in
  if damping then Config.with_damping Rfd_damping.Params.cisco base else base

let base_scenario () = Scenario.make ~name:"par" ~config:(fast_config ()) small_mesh

(* [Scenario.make] now rejects a 2x2 mesh eagerly, so the invalid record is
   built by hand — these tests exercise the late (Runner-side) validation
   path that hand-built records still go through. *)
let bad_scenario () =
  { (Scenario.make ~name:"bad" small_mesh) with
    Scenario.topology = Scenario.Mesh { rows = 2; cols = 2 }
  }

let test_plan_shape () =
  let jobs = Sweep.plan ~pulses:[ 1; 2 ] ~seeds:[ 7; 8 ] (base_scenario ()) in
  Alcotest.(check int) "pulses x seeds jobs" 4 (List.length jobs);
  Alcotest.(check (list int)) "seed-major order" [ 7; 7; 8; 8 ]
    (List.map (fun j -> j.Sweep.job_seed) jobs);
  Alcotest.(check (list int)) "pulses cycle per seed" [ 1; 2; 1; 2 ]
    (List.map (fun j -> j.Sweep.job_pulses) jobs);
  List.iter
    (fun j ->
      Alcotest.(check int) "seed substituted into config" j.Sweep.job_seed
        j.Sweep.job_scenario.Scenario.config.Config.seed;
      Alcotest.(check int) "pulse count substituted" j.Sweep.job_pulses
        j.Sweep.job_scenario.Scenario.pulses)
    jobs

let job_graph j =
  match j.Sweep.job_scenario.Scenario.topology with
  | Scenario.Custom g -> g
  | _ -> Alcotest.fail "expected materialized Custom topology"

let test_plan_materializes_topology () =
  let jobs = Sweep.plan ~pulses:[ 1; 2; 3 ] (base_scenario ()) in
  match List.map job_graph jobs with
  | g :: rest ->
      List.iter
        (fun g' -> Alcotest.(check bool) "one shared graph per seed" true (g == g'))
        rest
  | [] -> Alcotest.fail "no jobs planned"

(* A mesh reads no seed, so one plan builds it once for every seed; a BA
   graph is drawn per seed. Either way each job's key is the key of the
   same job planned alone, from a fresh memo. *)
let test_plan_builds_mesh_once () =
  let seeds = [ 3; 4; 5 ] in
  let check_plan topology ~shared =
    let base = Scenario.make ~name:"memo" ~config:(fast_config ()) topology in
    let jobs = Sweep.plan ~pulses:[ 1; 2 ] ~seeds base in
    let alone =
      List.concat_map (fun seed -> Sweep.plan ~pulses:[ 1; 2 ] ~seeds:[ seed ] base) seeds
    in
    Alcotest.(check (list string))
      (Scenario.topology_summary topology ^ ": keys as if planned one seed at a time")
      (List.map Sweep.job_key alone) (List.map Sweep.job_key jobs);
    let first = job_graph (List.hd jobs) in
    List.iter
      (fun j ->
        let same_seed = j.Sweep.job_seed = (List.hd jobs).Sweep.job_seed in
        Alcotest.(check bool)
          (Printf.sprintf "%s: seed %d shares the first seed's graph"
             (Scenario.topology_summary topology) j.Sweep.job_seed)
          (shared || same_seed)
          (job_graph j == first))
      jobs
  in
  check_plan small_mesh ~shared:true;
  check_plan (Scenario.Internet { nodes = 30; m = 2 }) ~shared:false

(* [rfd-sim topo]/[metrics] print the graph [materialize] resolves, so it
   must be the graph a run of the unresolved scenario simulates: the run's
   network is that graph plus the origin stub linked to the isp. *)
let test_materialize_is_simulated_graph () =
  List.iter
    (fun topology ->
      let scenario = Scenario.make ~config:(fast_config ~seed:42 ()) topology in
      let simulated = ref None in
      ignore
        (Runner.run
           ~observe:(fun net -> simulated := Some (Network.graph net))
           scenario);
      match ((Sweep.materialize scenario).Scenario.topology, !simulated) with
      | Scenario.Custom g, Some net_graph ->
          let n = Rfd_topology.Graph.num_nodes g in
          let expected =
            Rfd_topology.Graph.add_edges (Rfd_topology.Graph.add_nodes g 1) [ (0, n) ]
          in
          Alcotest.(check bool)
            (Scenario.topology_summary topology ^ " materializes the simulated graph")
            true
            (Rfd_topology.Graph.equal expected net_graph)
      | _ -> Alcotest.fail "expected a Custom graph and an observed network")
    [ small_mesh; Scenario.Internet { nodes = 30; m = 2 } ]

let test_plan_keeps_invalid_scenarios () =
  (* Validation errors must still surface from Runner.run, unchanged. *)
  let bad = bad_scenario () in
  let jobs = Sweep.plan ~pulses:[ 1 ] bad in
  match jobs with
  | [ j ] ->
      Alcotest.(check bool) "topology left symbolic" true
        (j.Sweep.job_scenario.Scenario.topology = Scenario.Mesh { rows = 2; cols = 2 });
      Alcotest.check_raises "runner still reports validation"
        (Invalid_argument "Runner.run: mesh needs rows, cols >= 3 (got 2x2)") (fun () ->
          ignore (Sweep.execute jobs))
  | _ -> Alcotest.fail "one job expected"

let test_memo_bit_identical () =
  (* Materializing a Barabási–Albert topology as Custom must not change the
     run: the graph comes from the same RNG split Runner would use. *)
  let scenario =
    Scenario.make ~name:"ba" ~config:(fast_config ()) (Scenario.Internet { nodes = 20; m = 2 })
  in
  let direct = Runner.run (Scenario.with_pulses scenario 2) in
  let via_plan =
    match Sweep.execute (Sweep.plan ~pulses:[ 2 ] scenario) with
    | [ r ] -> r
    | _ -> Alcotest.fail "one result expected"
  in
  Alcotest.(check int) "same messages" direct.Runner.message_count
    via_plan.Runner.message_count;
  Alcotest.(check (float 0.)) "same convergence" direct.Runner.convergence_time
    via_plan.Runner.convergence_time;
  Alcotest.(check int) "same isp" direct.Runner.isp via_plan.Runner.isp

let check_series msg expected actual =
  Alcotest.(check (list (pair (float 0.) (float 0.)))) msg expected actual

let test_run_jobs_determinism () =
  let base = base_scenario () in
  let s1 = Sweep.run ~pulses:[ 1; 2; 3 ] ~jobs:1 base in
  let s4 = Sweep.run ~pulses:[ 1; 2; 3 ] ~jobs:4 base in
  check_series "convergence series identical" (Sweep.convergence_series s1)
    (Sweep.convergence_series s4);
  check_series "message series identical" (Sweep.message_series s1)
    (Sweep.message_series s4);
  check_series "time-to-stable series identical" (Sweep.stable_series s1)
    (Sweep.stable_series s4);
  check_series "time-to-quiet series identical" (Sweep.quiet_series s1)
    (Sweep.quiet_series s4);
  List.iter
    (fun (_, q) -> Alcotest.(check bool) "quiet >= 0" true (q >= 0.))
    (Sweep.quiet_series s4)

let test_run_many_jobs_determinism () =
  let base = base_scenario () in
  let seeds = [ 1; 2; 3; 4 ] in
  let a1 = Sweep.run_many ~pulses:[ 1; 2 ] ~jobs:1 ~seeds base in
  let a4 = Sweep.run_many ~pulses:[ 1; 2 ] ~jobs:4 ~seeds base in
  check_series "mean convergence identical" (Sweep.mean_convergence_series a1)
    (Sweep.mean_convergence_series a4);
  check_series "mean messages identical" (Sweep.mean_message_series a1)
    (Sweep.mean_message_series a4);
  List.iter2
    (fun x y ->
      Alcotest.(check int) "same sample counts" (Summary.n x.Sweep.convergence)
        (Summary.n y.Sweep.convergence);
      Alcotest.(check (float 0.)) "same stddev" (Summary.stddev x.Sweep.messages)
        (Summary.stddev y.Sweep.messages))
    a1 a4

let test_execute_order_matches_plan () =
  let base = Scenario.make ~name:"ord" ~config:(fast_config ~damping:false ()) small_mesh in
  let plan = Sweep.plan ~pulses:[ 1; 3 ] ~seeds:[ 5; 6 ] base in
  let results = Sweep.execute ~jobs:4 plan in
  Alcotest.(check int) "one result per job" (List.length plan) (List.length results);
  List.iter2
    (fun job result ->
      Alcotest.(check int) "result matches its job's scenario seed" job.Sweep.job_seed
        result.Runner.scenario.Scenario.config.Config.seed)
    plan results

let chaos_faults () =
  Rfd_faults.Fault_plan.make ~name:"sweep-chaos" ~seed:5
    ~degradation:{ Rfd_faults.Fault_plan.loss = 0.05; duplication = 0.05 }
    ~random_flaps:
      { Rfd_faults.Fault_plan.cycles = 3; window = 40.; down_mean = 5.; candidates = [] }
    ()

let test_run_failures_per_slot () =
  (* One poisoned point in the middle of the sweep (a negative pulse count
     fails the runner's validation): it becomes a crash failure carrying
     the printed exception, every other point is still clean — identically
     at any jobs count. *)
  let shape sweep =
    ( List.map
        (fun (p : Sweep.point) -> (p.Sweep.pulses, p.Sweep.message_count))
        sweep.Sweep.points,
      List.map
        (fun f ->
          match f.Sweep.reason with
          | Sweep.Crashed msg -> (f.Sweep.failed_pulses, msg)
          | _ -> Alcotest.fail "expected Crashed")
        sweep.Sweep.failures )
  in
  let s1 = shape (Sweep.run ~pulses:[ 1; -1; 2 ] ~jobs:1 (base_scenario ())) in
  let s4 = shape (Sweep.run ~pulses:[ 1; -1; 2 ] ~jobs:4 (base_scenario ())) in
  Alcotest.(check (pair (list (pair int int)) (list (pair int string))))
    "jobs=1 vs jobs=4 identical outcomes" s1 s4;
  match s1 with
  | [ (1, _); (2, _) ], [ (-1, msg) ] ->
      Alcotest.(check string) "the failure is the printed exception"
        (Printexc.to_string (Invalid_argument "Runner.run: pulses must be non-negative (got -1)"))
        msg
  | _ -> Alcotest.fail "expected clean points 1 and 2 and one failure at -1"

let test_run_collects_crash_failures () =
  let bad = bad_scenario () in
  let sweep = Sweep.run ~pulses:[ 1; 2; 3 ] ~jobs:4 bad in
  Alcotest.(check int) "no clean points" 0 (List.length sweep.Sweep.points);
  Alcotest.(check int) "every point is a failure" 3 (List.length sweep.Sweep.failures);
  Alcotest.(check (list int)) "failures keep plan order" [ 1; 2; 3 ]
    (List.map (fun f -> f.Sweep.failed_pulses) sweep.Sweep.failures);
  List.iter
    (fun f ->
      match f.Sweep.reason with
      | Sweep.Crashed msg ->
          Alcotest.(check bool) "crash reason is the printed exception" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "expected Crashed")
    sweep.Sweep.failures;
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "series are empty" []
    (Sweep.convergence_series sweep)

let test_run_budget_partial_sweep () =
  (* Pick an event budget between the cheapest and the dearest point: the
     cheap point stays clean, the dear one becomes a structured failure
     carrying its partial result. Identical at jobs=1 and jobs=4. *)
  let base = base_scenario () in
  let healthy = Sweep.run ~pulses:[ 1; 4 ] ~jobs:1 base in
  let events p = (List.nth healthy.Sweep.points p).Sweep.result.Runner.sim_events in
  let cap = (events 0 + events 1) / 2 in
  Alcotest.(check bool) "cap separates the two points" true
    (events 0 < cap && cap < events 1);
  let budget = Runner.budget ~max_events:cap () in
  let check label sweep =
    Alcotest.(check (list int)) (label ^ ": clean points") [ 1 ]
      (List.map (fun (p : Sweep.point) -> p.Sweep.pulses) sweep.Sweep.points);
    match sweep.Sweep.failures with
    | [ { Sweep.failed_pulses = 4; reason = Sweep.Budget_exceeded partial; _ } ] ->
        (* Budgets are checked at epoch barriers: the run stops at the
           first barrier at or past the cap. *)
        Alcotest.(check bool) (label ^ ": partial ran up to the cap") true
          (cap <= partial.Runner.sim_events);
        Alcotest.(check bool) (label ^ ": status says budget-exceeded") true
          (match partial.Runner.final_status with
          | Runner.Budget_exceeded _ -> true
          | Runner.Finished _ -> false)
    | _ -> Alcotest.failf "%s: expected one budget failure at pulses=4" label
  in
  let s1 = Sweep.run ~pulses:[ 1; 4 ] ~jobs:1 ~budget base in
  let s4 = Sweep.run ~pulses:[ 1; 4 ] ~jobs:4 ~budget base in
  check "jobs=1" s1;
  check "jobs=4" s4;
  check_series "clean series identical across jobs" (Sweep.convergence_series s1)
    (Sweep.convergence_series s4)

let test_run_many_budget_skips_samples () =
  let base = base_scenario () in
  let budget = Runner.budget ~max_events:10 () in
  let aggs = Sweep.run_many ~pulses:[ 1; 2 ] ~jobs:2 ~seeds:[ 1; 2; 3 ] ~budget base in
  Alcotest.(check int) "aggregates still cover every pulse count" 2 (List.length aggs);
  List.iter
    (fun a ->
      Alcotest.(check int) "budget-exceeded runs contribute no sample" 0
        (Summary.n a.Sweep.convergence))
    aggs

let test_chaos_sweep_jobs_determinism () =
  (* The full fault stack — loss, duplication, seeded random flaps — must
     not disturb jobs-count invariance. *)
  let base =
    Scenario.make ~name:"chaos" ~config:(fast_config ()) ~faults:(chaos_faults ())
      small_mesh
  in
  let s1 = Sweep.run ~pulses:[ 1; 2; 3 ] ~jobs:1 base in
  let s4 = Sweep.run ~pulses:[ 1; 2; 3 ] ~jobs:4 base in
  Alcotest.(check int) "chaos sweep stays healthy" 0 (List.length s1.Sweep.failures);
  check_series "chaos convergence series identical" (Sweep.convergence_series s1)
    (Sweep.convergence_series s4);
  check_series "chaos message series identical" (Sweep.message_series s1)
    (Sweep.message_series s4);
  List.iter2
    (fun (a : Sweep.point) (b : Sweep.point) ->
      Alcotest.(check int) "per-point events identical" a.Sweep.result.Runner.sim_events
        b.Sweep.result.Runner.sim_events)
    s1.Sweep.points s4.Sweep.points

let suite =
  [
    Alcotest.test_case "plan shape" `Quick test_plan_shape;
    Alcotest.test_case "plan materializes topology" `Quick test_plan_materializes_topology;
    Alcotest.test_case "plan builds a mesh once for all seeds" `Quick test_plan_builds_mesh_once;
    Alcotest.test_case "materialize is the simulated graph" `Quick
      test_materialize_is_simulated_graph;
    Alcotest.test_case "invalid scenarios untouched" `Quick test_plan_keeps_invalid_scenarios;
    Alcotest.test_case "memoized topology bit-identical" `Quick test_memo_bit_identical;
    Alcotest.test_case "run: jobs=1 vs jobs=4 identical" `Quick test_run_jobs_determinism;
    Alcotest.test_case "run_many: jobs=1 vs jobs=4 identical" `Quick
      test_run_many_jobs_determinism;
    Alcotest.test_case "execute preserves plan order" `Quick test_execute_order_matches_plan;
    Alcotest.test_case "run failures degrade per slot" `Quick test_run_failures_per_slot;
    Alcotest.test_case "run collects crash failures" `Quick test_run_collects_crash_failures;
    Alcotest.test_case "run survives a budget-exceeded point" `Quick
      test_run_budget_partial_sweep;
    Alcotest.test_case "run_many skips budget-exceeded samples" `Quick
      test_run_many_budget_skips_samples;
    Alcotest.test_case "chaos sweep: jobs=1 vs jobs=4 identical" `Quick
      test_chaos_sweep_jobs_determinism;
  ]
