(* Bechamel micro-benchmarks: one Test.make per table/figure workload, so
   the cost of regenerating each artefact is tracked, plus substrate
   hot-path benches (event queue, damper, decision process). *)

open Bechamel
open Toolkit
module Scenario = Rfd.Scenario
module Runner = Rfd.Runner
module Config = Rfd.Config
module Params = Rfd.Params
module Intended = Rfd.Intended
module Phases = Rfd.Phases

let small_mesh = Scenario.Mesh { rows = 4; cols = 4 }

let run_scenario ~damping ~mode ~pulses () =
  let base = { Config.default with Config.seed = 7 } in
  let config = if damping then Config.with_damping ~mode Params.cisco base else base in
  ignore (Runner.run (Scenario.make ~name:"bench" ~config ~pulses small_mesh))

let sim_churn () =
  let sim = Rfd.Sim.create () in
  let ch = Rfd.Sim.channel sim (fun _ _ -> ()) in
  for i = 1 to 1000 do
    Rfd.Sim.post sim ch ~time:(float_of_int (i mod 17)) i
  done;
  Rfd.Sim.run sim

(* One slot of a penalty table, charged 500 times; its owner keeps the
   suppressed flag, as a router does. *)
let damper_churn () =
  let setting = Rfd.Damper.setting Params.cisco in
  let slots = Rfd.Damper.slots ~capacity:1 in
  let suppressed = ref false in
  for i = 1 to 500 do
    match
      Rfd.Damper.slot_record setting slots 0 ~now:(float_of_int i) ~suppressed:!suppressed
        Rfd.Damper.Attribute_change
    with
    | `Suppressed -> suppressed := true
    | `Ok -> ()
  done

let graph_build () = ignore (Rfd.Builders.mesh ~rows:10 ~cols:10)

let phases_classify () =
  let update_times =
    Rfd.Column.Floats.of_array (Array.init 500 (fun i -> float_of_int i *. 3.))
  in
  let reuse_times = Rfd.Column.Floats.of_array [| 700.; 900. |] in
  ignore (Phases.classify ~update_times ~reuse_times ~flap_start:0.)

let tests =
  [
    Test.make ~name:"table1/params-math"
      (Staged.stage (fun () -> ignore (Params.reuse_delay Params.cisco ~penalty:3000.)));
    Test.make ~name:"fig3/penalty-trace"
      (Staged.stage (fun () ->
           ignore
             (Intended.penalty_trace Params.cisco (Intended.pulse_train ~pulses:3 ~interval:120.))));
    Test.make ~name:"fig4/phase-classify" (Staged.stage phases_classify);
    Test.make ~name:"fig7/damper-churn" (Staged.stage damper_churn);
    Test.make ~name:"fig8/damped-run-n1"
      (Staged.stage (run_scenario ~damping:true ~mode:Config.Plain ~pulses:1));
    Test.make ~name:"fig9/plain-run-n1"
      (Staged.stage (run_scenario ~damping:false ~mode:Config.Plain ~pulses:1));
    Test.make ~name:"fig10/damped-run-n3"
      (Staged.stage (run_scenario ~damping:true ~mode:Config.Plain ~pulses:3));
    Test.make ~name:"fig13/rcn-run-n3"
      (Staged.stage (run_scenario ~damping:true ~mode:Config.Rcn ~pulses:3));
    Test.make ~name:"fig15/no-valley-run"
      (Staged.stage (fun () ->
           let config = Config.with_damping Params.cisco { Config.default with Config.seed = 7 } in
           ignore
             (Runner.run
                (Scenario.make ~name:"bench" ~policy:Scenario.No_valley ~config ~pulses:1
                   (Scenario.Internet { nodes = 24; m = 2 })))));
    Test.make ~name:"substrate/sim-1k-events" (Staged.stage sim_churn);
    Test.make ~name:"substrate/mesh-build" (Staged.stage graph_build);
  ]

(* (workload name, OLS time-per-run estimate in nanoseconds) rows, sorted
   by name — the data behind both the printed table and the JSON artefact. *)
let estimates () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let grouped = Test.make_grouped ~name:"rfd" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let nanos =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan
      in
      (name, nanos) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run () =
  let rows = estimates () in
  print_string
    (Rfd.Report.table ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
       ~header:[ "workload"; "time/run" ]
       (List.map
          (fun (name, nanos) ->
            let cell =
              if Float.is_nan nanos then "n/a"
              else if nanos > 1e9 then Printf.sprintf "%.2f s" (nanos /. 1e9)
              else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
              else if nanos > 1e3 then Printf.sprintf "%.2f us" (nanos /. 1e3)
              else Printf.sprintf "%.0f ns" nanos
            in
            [ name; cell ])
          rows))
