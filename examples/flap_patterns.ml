(* Beyond the paper's periodic pulse train: how the flap *pattern* affects
   damping. Bursty instability concentrates penalty (suppression after one
   burst); slow Poisson flapping can stay under the cut-off forever.
   Also prints the protocol transcript of a small run.

   Run with: dune exec examples/flap_patterns.exe *)

let mesh = Rfd.Scenario.Mesh { rows = 6; cols = 6 }

let run pattern =
  let scenario =
    Rfd.Scenario.make ~name:"patterns" ~config:Rfd.cisco_damping_config ~pattern mesh
  in
  let r = Rfd.Runner.run scenario in
  ( r.Rfd.Runner.convergence_time,
    r.Rfd.Runner.message_count,
    Rfd.Collector.suppress_events r.Rfd.Runner.collector )

let () =
  let patterns =
    [
      Rfd.Pulse.Periodic { pulses = 4; interval = 60. };
      Rfd.Pulse.Poisson { pulses = 4; mean_interval = 600.; seed = 9 };
      Rfd.Pulse.Bursty { bursts = 2; pulses_per_burst = 2; gap = 1800.; burst_interval = 30. };
    ]
  in
  Format.printf "Flap patterns on a 36-node mesh with Cisco damping:@.@.";
  Format.printf "%-34s %12s %9s %13s@." "pattern" "conv (s)" "updates" "suppressions";
  List.iter
    (fun pattern ->
      let conv, msgs, sup = run pattern in
      Format.printf "%-34s %12.0f %9d %13d@."
        (Format.asprintf "%a" Rfd.Pulse.pp pattern)
        conv msgs sup)
    patterns;
  Format.printf
    "@.Slow (Poisson, ~10 min apart) flaps decay away between events; bursts charge@.";
  Format.printf "the penalty like rapid pulses do, then pay the full reuse delay.@.@.";

  (* A tiny traced run: watch the protocol speak. *)
  let net =
    Rfd.Par_net.create
      ~config:{ Rfd.Config.default with Rfd.Config.mrai = 0.; link_jitter = 0. }
      ~partitions:1 (Rfd.Builders.line 3)
  in
  let transcript = Rfd.Recorder.transcript ~limit:max_int (Rfd.Par_net.bus net) in
  Rfd.Par_net.originate net ~node:0 (Rfd.Prefix.v 0);
  ignore (Rfd.Par_net.drive net);
  Format.printf "Protocol transcript of a 3-router line converging:@.";
  List.iter (Format.printf "%s@.") (transcript ())
