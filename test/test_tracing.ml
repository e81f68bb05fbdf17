(* Tests for the protocol transcript: typed hook events rendered one line
   each, composed with existing hooks, in the same order at every
   partition count. *)

module Recorder = Rfd_experiment.Recorder
module Runner = Rfd_experiment.Runner
module Scenario = Rfd_experiment.Scenario
module Protocol = Rfd_service.Protocol
module Par_net = Rfd_experiment.Par_net
open Rfd_bgp

let p0 = Prefix.v 0

let fast = { Config.default with Config.mrai = 0.; link_delay = 0.01; link_jitter = 0. }

(* A transcript line is "[      time] topic        message". *)
let topic line = String.trim (String.sub line 13 12)
let topics lines = List.sort_uniq String.compare (List.map topic lines)
let count_topic name lines = List.length (List.filter (fun l -> topic l = name) lines)

let line_network ?(config = fast) () = Fixture.create ~config (Rfd_topology.Builders.line 3)

let test_records_protocol_events () =
  let net = line_network () in
  let transcript = Recorder.transcript ~limit:max_int (Par_net.bus net) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let lines = transcript () in
  let seen = topics lines in
  Alcotest.(check bool) "sends traced" true (List.mem "send" seen);
  Alcotest.(check bool) "deliveries traced" true (List.mem "deliver" seen);
  Alcotest.(check bool) "best changes traced" true (List.mem "best" seen);
  Alcotest.(check string) "first line" "[     0.000] best         router 0: p0 now via p0 via []"
    (List.hd lines)

let test_composes_with_collector () =
  (* collector first, transcript second: both must observe every delivery *)
  let net = line_network () in
  let collector = Rfd_experiment.Collector.create () in
  Rfd_experiment.Collector.attach collector (Par_net.bus net);
  let transcript = Recorder.transcript ~limit:max_int (Par_net.bus net) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check bool) "collector saw messages" true
    (Rfd_experiment.Collector.update_count collector > 0);
  Alcotest.(check int) "transcript and collector agree"
    (Rfd_experiment.Collector.update_count collector)
    (count_topic "deliver" (transcript ()))

let test_damping_topics () =
  let net = line_network ~config:(Config.with_damping Rfd_damping.Params.cisco fast) () in
  let transcript = Recorder.transcript ~limit:max_int (Par_net.bus net) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let t0 = Par_net.now net +. 1. in
  for i = 0 to 3 do
    Par_net.schedule_withdraw net ~at:(t0 +. (120. *. float_of_int i)) ~node:0 p0;
    Par_net.schedule_originate net ~at:(t0 +. (120. *. float_of_int i) +. 60.) ~node:0 p0
  done;
  Fixture.run net;
  let seen = topics (transcript ()) in
  List.iter
    (fun topic -> Alcotest.(check bool) (topic ^ " traced") true (List.mem topic seen))
    [ "penalty"; "suppress"; "reuse" ]

let test_limit_zero_renders_nothing () =
  let net = line_network () in
  let transcript = Recorder.transcript ~limit:0 (Par_net.bus net) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check (list string)) "nothing rendered" [] (transcript ());
  Alcotest.check_raises "negative limit"
    (Invalid_argument "Recorder.transcript: limit must be >= 0") (fun () ->
      let (_ : unit -> string list) = Recorder.transcript ~limit:(-1) (Par_net.bus net) in
      ())

let test_runner_observe () =
  (* the Runner's [observe] hook exposes the network for extra observers
     during the measured flap phase *)
  let transcript = ref (fun () -> []) in
  let observe net = transcript := Recorder.transcript ~limit:max_int (Network.hooks net) in
  let scenario = Scenario.make ~config:fast (Scenario.Mesh { rows = 3; cols = 3 }) in
  let r = Runner.run ~observe scenario in
  Alcotest.(check int) "transcript covers the flap phase exactly"
    r.Runner.message_count
    (count_topic "deliver" (!transcript ()))

(* The CLI's scenarios: [rfd-sim run -t mesh:4x4 --mrai 1] plus [flags]. *)
let cli_scenario ?faults spec =
  match
    Protocol.scenario_of_spec
      { spec with Protocol.topology = Protocol.Mesh { rows = 4; cols = 4 }; mrai = 1. }
  with
  | Error e -> Alcotest.fail e
  | Ok s -> { s with Scenario.faults }

(* Reuse wheels fire on the shared tick grid, so several routers release
   at one instant: execution order (one partition) and merged order
   (several) differ there, and the transcript must print the merged one. *)
let tick_scenario () =
  cli_scenario { Protocol.default_spec with Protocol.pulses = 3; reuse_tick = Some 15. }

let chaos_scenario () =
  cli_scenario
    ~faults:
      (Rfd_faults.Fault_plan.make ~name:"cli-chaos" ~seed:7
         ~degradation:{ Rfd_faults.Fault_plan.loss = 0.05; duplication = 0.05 }
         ~random_flaps:
           { Rfd_faults.Fault_plan.cycles = 3; window = 120.; down_mean = 30.; candidates = [] }
         ())
    { Protocol.default_spec with Protocol.pulses = 2 }

let transcript_at ?(limit = max_int) ~partitions scenario =
  let transcript = ref (fun () -> []) in
  let on_bus bus = transcript := Recorder.transcript ~limit bus in
  ignore (Runner.run_partitioned ~on_bus ~partitions scenario);
  !transcript ()

let check_partition_invariant label scenario counts =
  let one = transcript_at ~partitions:1 scenario in
  List.iter
    (fun partitions ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: partitions=1 vs %d" label partitions)
        one
        (transcript_at ~partitions scenario))
    counts;
  one

let test_partition_invariant () =
  let lines = check_partition_invariant "tick wheel" (tick_scenario ()) [ 2; 3 ] in
  let releases =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.sub line 26 (String.length line - 26)) with
        | [ "router"; router; "reuses"; _; _; _; _; _ ] -> Some (String.sub line 0 12, router)
        | _ -> None)
      lines
  in
  Alcotest.(check bool) "several routers reuse at one instant" true
    (List.exists
       (fun (time, router) ->
         List.exists (fun (time', router') -> time = time' && router <> router') releases)
       releases)

let test_same_instant_router_order () =
  let bus = Hooks.create () in
  let transcript = Recorder.transcript ~limit:max_int bus in
  let prefix = p0 in
  bus.Hooks.on_reuse ~time:1. ~router:3 ~peer:0 ~prefix ~noisy:false;
  bus.Hooks.on_suppress ~time:1. ~router:1 ~peer:0 ~prefix;
  bus.Hooks.on_deliver ~time:1. ~src:3 ~dst:2 (Update.withdraw prefix);
  bus.Hooks.on_reuse ~time:1. ~router:3 ~peer:2 ~prefix ~noisy:true;
  bus.Hooks.on_penalty ~time:1. ~router:1 ~peer:2 ~prefix ~penalty:1000.;
  bus.Hooks.on_suppress ~time:2. ~router:0 ~peer:1 ~prefix;
  Alcotest.(check (list string)) "router order, each router's own order kept"
    [
      "[     1.000] suppress     router 1 suppresses peer 0 for p0";
      "[     1.000] penalty      router 1 peer 2 p0 penalty 1000";
      "[     1.000] deliver      3 -> 2: W p0";
      "[     1.000] reuse        router 3 reuses peer 0 for p0 (silent)";
      "[     1.000] reuse        router 3 reuses peer 2 for p0 (noisy)";
      "[     2.000] suppress     router 0 suppresses peer 1 for p0";
    ]
    (transcript ())

let test_limit_is_a_prefix () =
  let scenario = tick_scenario () in
  let all = transcript_at ~partitions:1 scenario in
  Alcotest.(check (list string)) "first 5 lines"
    (List.filteri (fun i _ -> i < 5) all)
    (transcript_at ~limit:5 ~partitions:1 scenario)

let test_loss_and_duplication () =
  let lines = check_partition_invariant "chaos" (chaos_scenario ()) [ 3 ] in
  Alcotest.(check bool) "drops rendered" true (count_topic "drop" lines > 0);
  Alcotest.(check bool) "duplicates rendered" true (count_topic "duplicate" lines > 0)

let suite =
  [
    Alcotest.test_case "records protocol events" `Quick test_records_protocol_events;
    Alcotest.test_case "composes with collector" `Quick test_composes_with_collector;
    Alcotest.test_case "damping topics" `Quick test_damping_topics;
    Alcotest.test_case "disabled trace" `Quick test_limit_zero_renders_nothing;
    Alcotest.test_case "runner observe hook" `Quick test_runner_observe;
    Alcotest.test_case "same lines at every partition count" `Quick test_partition_invariant;
    Alcotest.test_case "same-instant events in router order" `Quick
      test_same_instant_router_order;
    Alcotest.test_case "limit keeps the first lines" `Quick test_limit_is_a_prefix;
    Alcotest.test_case "loss and duplication rendered" `Quick test_loss_and_duplication;
  ]
