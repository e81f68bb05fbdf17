(* Tests for flap-pattern generation. *)

module Pulse = Rfd_experiment.Pulse
module Intended = Rfd_experiment.Intended

let kinds evs = List.map (fun (e : Pulse.event) -> e.Pulse.kind) evs
let times evs = List.map (fun (e : Pulse.event) -> e.Pulse.at) evs

let alternating evs =
  let rec loop expected = function
    | [] -> true
    | (e : Pulse.event) :: rest -> e.Pulse.kind = expected && loop
        (if expected = `Withdraw then `Announce else `Withdraw) rest
  in
  loop `Withdraw evs

let strictly_increasing evs =
  let rec loop last = function
    | [] -> true
    | (e : Pulse.event) :: rest -> e.Pulse.at > last && loop e.Pulse.at rest
  in
  loop neg_infinity evs

let test_periodic () =
  let evs = Pulse.events (Pulse.Periodic { pulses = 2; interval = 60. }) in
  Alcotest.(check (list (float 0.))) "times" [ 0.; 60.; 120.; 180. ] (times evs);
  Alcotest.(check bool) "alternates" true (alternating evs);
  Alcotest.(check (float 0.)) "final announcement" 180.
    (Pulse.final_announcement (Pulse.Periodic { pulses = 2; interval = 60. }))

let test_periodic_zero () =
  Alcotest.(check int) "empty" 0
    (List.length (Pulse.events (Pulse.Periodic { pulses = 0; interval = 60. })));
  Alcotest.(check (float 0.)) "final at 0" 0.
    (Pulse.final_announcement (Pulse.Periodic { pulses = 0; interval = 60. }))

let test_poisson_well_formed () =
  let p = Pulse.Poisson { pulses = 8; mean_interval = 45.; seed = 3 } in
  let evs = Pulse.events p in
  Alcotest.(check int) "2 events per pulse" 16 (List.length evs);
  Alcotest.(check bool) "alternates" true (alternating evs);
  Alcotest.(check bool) "increasing" true (strictly_increasing evs);
  (* determinism *)
  Alcotest.(check bool) "deterministic" true (Pulse.events p = evs);
  let other = Pulse.events (Pulse.Poisson { pulses = 8; mean_interval = 45.; seed = 4 }) in
  Alcotest.(check bool) "seed dependent" false (other = evs)

let test_bursty () =
  let p =
    Pulse.Bursty { bursts = 2; pulses_per_burst = 3; gap = 600.; burst_interval = 10. }
  in
  let evs = Pulse.events p in
  Alcotest.(check int) "event count" 12 (List.length evs);
  Alcotest.(check bool) "alternates" true (alternating evs);
  Alcotest.(check bool) "increasing" true (strictly_increasing evs);
  (* second burst starts after the gap *)
  let t7 = List.nth (times evs) 6 in
  Alcotest.(check (float 1e-9)) "gap honoured" (60. +. 600.) t7

let test_custom_validation () =
  let ok =
    Pulse.Custom [ { Pulse.at = 0.; kind = `Withdraw }; { Pulse.at = 5.; kind = `Announce } ]
  in
  Alcotest.(check int) "valid custom" 2 (List.length (Pulse.events ok));
  let starts_with_announce =
    Pulse.Custom [ { Pulse.at = 0.; kind = `Announce } ]
  in
  Alcotest.check_raises "must start with withdrawal"
    (Invalid_argument "Pulse: events must alternate starting with a withdrawal") (fun () ->
      ignore (Pulse.events starts_with_announce));
  let ends_with_withdraw = Pulse.Custom [ { Pulse.at = 0.; kind = `Withdraw } ] in
  Alcotest.check_raises "must end with announcement"
    (Invalid_argument "Pulse: pattern must end with an announcement") (fun () ->
      ignore (Pulse.events ends_with_withdraw));
  let unordered =
    Pulse.Custom [ { Pulse.at = 5.; kind = `Withdraw }; { Pulse.at = 5.; kind = `Announce } ]
  in
  Alcotest.check_raises "strictly increasing"
    (Invalid_argument "Pulse: times must be strictly increasing") (fun () ->
      ignore (Pulse.events unordered))

let test_empty_custom_rejected () =
  (* Regression: Custom [] used to pass validation and silently report
     final_announcement = 0, shifting every phase boundary. *)
  Alcotest.check_raises "empty custom pattern"
    (Invalid_argument "Pulse: custom pattern must be non-empty") (fun () ->
      ignore (Pulse.events (Pulse.Custom [])))

let test_non_finite_intervals_rejected () =
  (* Regression: an infinite mean_interval made the Poisson cross-pulse
     nudge a no-op (inf + anything = inf), producing equal consecutive
     times — non-finite scales are now rejected up front for every arm. *)
  Alcotest.check_raises "poisson infinite mean"
    (Invalid_argument "Pulse: mean_interval must be positive and finite") (fun () ->
      ignore (Pulse.events (Pulse.Poisson { pulses = 2; mean_interval = infinity; seed = 1 })));
  Alcotest.check_raises "periodic infinite interval"
    (Invalid_argument "Pulse: interval must be positive and finite") (fun () ->
      ignore (Pulse.events (Pulse.Periodic { pulses = 2; interval = infinity })));
  Alcotest.check_raises "bursty infinite gap"
    (Invalid_argument "Pulse: gap and burst_interval must be positive and finite")
    (fun () ->
      ignore
        (Pulse.events
           (Pulse.Bursty
              { bursts = 2; pulses_per_burst = 1; gap = infinity; burst_interval = 5. })))

let test_to_intended () =
  let p = Pulse.Periodic { pulses = 1; interval = 60. } in
  let evs = Pulse.to_intended_events p in
  Alcotest.(check int) "mapped" 2 (List.length evs);
  (match evs with
  | [ w; a ] ->
      Alcotest.(check bool) "kinds mapped" true
        (w.Intended.kind = `Withdrawal && a.Intended.kind = `Announcement)
  | _ -> Alcotest.fail "two events expected");
  (* the intended trace through a custom pattern equals the periodic one *)
  let trace_a = Intended.penalty_trace Rfd_damping.Params.cisco evs in
  let trace_b =
    Intended.penalty_trace Rfd_damping.Params.cisco (Intended.pulse_train ~pulses:1 ~interval:60.)
  in
  Alcotest.(check bool) "consistent with Intended.pulse_train" true (trace_a = trace_b)

let test_schedule_into_network () =
  (* A run schedules the pattern's events after the settle gap: its final
     announcement lands where the pattern puts it, and the route is back
     everywhere once the run drains. *)
  let pattern = Pulse.Bursty { bursts = 1; pulses_per_burst = 2; gap = 100.; burst_interval = 5. } in
  let config =
    { Rfd_bgp.Config.default with Rfd_bgp.Config.mrai = 0.; link_delay = 0.01 }
  in
  let scenario =
    Rfd_experiment.Scenario.make ~config ~pattern
      (Rfd_experiment.Scenario.Custom (Rfd_topology.Builders.line 3))
  in
  let net = ref None in
  let r = Rfd_experiment.Runner.run ~observe:(fun n -> net := Some n) scenario in
  Alcotest.(check (float 1e-9)) "final announcement where the pattern puts it"
    (r.Rfd_experiment.Runner.flap_start +. Pulse.final_announcement pattern)
    r.Rfd_experiment.Runner.final_announcement;
  match !net with
  | None -> Alcotest.fail "observe not called"
  | Some net ->
      Alcotest.(check int) "route restored" r.Rfd_experiment.Runner.num_nodes
        (Rfd_bgp.Network.reachable_count net Rfd_experiment.Runner.origin_prefix)

let test_runner_with_pattern () =
  let config =
    { Rfd_bgp.Config.default with Rfd_bgp.Config.mrai = 1.; link_delay = 0.01 }
  in
  let scenario =
    Rfd_experiment.Scenario.make ~config
      ~pattern:(Pulse.Poisson { pulses = 3; mean_interval = 30.; seed = 5 })
      (Rfd_experiment.Scenario.Mesh { rows = 3; cols = 3 })
  in
  let r = Rfd_experiment.Runner.run scenario in
  Alcotest.(check bool) "ran with messages" true (r.Rfd_experiment.Runner.message_count > 0);
  Alcotest.(check bool) "final announcement after flap start" true
    (r.Rfd_experiment.Runner.final_announcement > r.Rfd_experiment.Runner.flap_start)

let test_scenario_validates_pattern () =
  let bad =
    Rfd_experiment.Scenario.make
      ~pattern:(Pulse.Custom [ { Pulse.at = 0.; kind = `Withdraw } ])
      (Rfd_experiment.Scenario.Mesh { rows = 3; cols = 3 })
  in
  Alcotest.(check bool) "invalid pattern rejected" true
    (Result.is_error (Rfd_experiment.Scenario.validate bad))

let prop_poisson_always_well_formed =
  QCheck.Test.make ~name:"poisson patterns always well-formed" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 0 20))
    (fun (seed, pulses) ->
      let evs = Pulse.events (Pulse.Poisson { pulses; mean_interval = 10.; seed }) in
      alternating evs && strictly_increasing evs && List.length evs = 2 * pulses)

let prop_poisson_extreme_means =
  (* Cross-pulse monotonicity must survive denormal and huge means, where
     exponential draws round to 0 or the nudge is far below one ulp. *)
  QCheck.Test.make ~name:"poisson well-formed at extreme means" ~count:100
    QCheck.(triple (int_range 0 2_000) (int_range 1 8) (int_range (-300) 300))
    (fun (seed, pulses, exponent) ->
      let mean_interval = 10. ** float_of_int exponent in
      let evs = Pulse.events (Pulse.Poisson { pulses; mean_interval; seed }) in
      alternating evs && strictly_increasing evs && List.length evs = 2 * pulses)

let suite =
  [
    Alcotest.test_case "periodic" `Quick test_periodic;
    Alcotest.test_case "periodic zero pulses" `Quick test_periodic_zero;
    Alcotest.test_case "poisson well-formed" `Quick test_poisson_well_formed;
    Alcotest.test_case "bursty" `Quick test_bursty;
    Alcotest.test_case "custom validation" `Quick test_custom_validation;
    Alcotest.test_case "empty custom pattern rejected" `Quick test_empty_custom_rejected;
    Alcotest.test_case "non-finite intervals rejected" `Quick
      test_non_finite_intervals_rejected;
    Alcotest.test_case "conversion to intended events" `Quick test_to_intended;
    Alcotest.test_case "schedule into network" `Quick test_schedule_into_network;
    Alcotest.test_case "runner accepts a pattern" `Quick test_runner_with_pattern;
    Alcotest.test_case "scenario validates pattern" `Quick test_scenario_validates_pattern;
    QCheck_alcotest.to_alcotest prop_poisson_always_well_formed;
    QCheck_alcotest.to_alcotest prop_poisson_extreme_means;
  ]
