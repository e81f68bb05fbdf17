(* Tick-wheel reuse scheduling (Config.Tick) vs exact per-entry timers
   (Config.Exact).

   The one-tick bound is a property of a single damper: the wheel fires a
   suppressed entry at the first tick boundary at or after its exact reuse
   instant. On a two-node line the damping router's reuse timing cannot
   feed back into its own penalty (there is nobody downstream to re-flap),
   so the bound is directly observable. Network-wide convergence deltas
   are NOT tick-bounded — a shifted reuse shifts whole message cascades —
   which is what the ablation-reuse-tick experiment documents. *)

open Rfd_bgp
module Par_net = Rfd_experiment.Par_net
module Builders = Rfd_topology.Builders
module Params = Rfd_damping.Params
module Scenario = Rfd_experiment.Scenario
module Sweep = Rfd_experiment.Sweep

let p0 = Prefix.v 0

let line_config reuse =
  Config.with_damping ~reuse Params.cisco
    {
      Config.default with
      Config.mrai = 0.;
      link_delay = 0.01;
      link_jitter = 0.;
      mrai_jitter = (1.0, 1.0);
    }

(* Run a flap schedule on origin 0 of a two-node line and return the time
   router 1's first reuse fired, if any. [flaps] are (withdraw, announce)
   offsets from a common start. *)
let first_reuse ~reuse ~flaps =
  let net = Fixture.create ~config:(line_config reuse) (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let reuse_at = ref None in
  (Par_net.bus net).Hooks.on_reuse <-
    (fun ~time ~router ~peer:_ ~prefix:_ ~noisy:_ ->
      if !reuse_at = None && router = 1 then reuse_at := Some time);
  let t0 = Par_net.now net +. 1. in
  List.iter
    (fun (w, a) ->
      Par_net.schedule_withdraw net ~at:(t0 +. w) ~node:0 p0;
      Par_net.schedule_originate net ~at:(t0 +. a) ~node:0 p0)
    flaps;
  Fixture.run net;
  !reuse_at

let prop_tick_reuse_within_one_tick =
  (* Random flap trains dense enough to suppress (3-5 withdrawals inside a
     ~300 s window; cisco reuse then lies >1200 s out, so both modes see
     the identical charge sequence before the compared reuse) and a random
     tick period: the wheel's first reuse must fall within [exact,
     exact + tick]. Later pulses land while the entry is already parked,
     exercising slot migration. *)
  QCheck.Test.make ~name:"tick-mode reuse within one tick of exact" ~count:60
    QCheck.(
      pair
        (pair (int_range 3 5) (float_range 20. 60.))
        (pair (float_range 0.1 0.9) (float_range 1. 120.)))
    (fun ((pulses, interval), (gap, tick)) ->
      let flaps =
        List.init pulses (fun i ->
            let base = float_of_int i *. interval in
            (base, base +. (gap *. interval)))
      in
      let exact = first_reuse ~reuse:Config.Exact ~flaps in
      let ticked = first_reuse ~reuse:(Config.Tick tick) ~flaps in
      match (exact, ticked) with
      | Some te, Some tt -> tt >= te -. 1e-3 && tt <= te +. tick +. 1e-3
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let test_tick_mode_converges_like_exact () =
  (* Deterministic end-to-end smoke: both modes fully release on a line and
     end with the same reachability; tick mode's release is not earlier. *)
  let flaps = [ (0., 30.); (60., 90.); (120., 150.) ] in
  match
    (first_reuse ~reuse:Config.Exact ~flaps, first_reuse ~reuse:(Config.Tick 15.) ~flaps)
  with
  | Some te, Some tt ->
      Alcotest.(check bool) "tick fires at or after exact" true (tt >= te -. 1e-3);
      Alcotest.(check bool) "and within one 15s tick" true (tt <= te +. 15. +. 1e-3)
  | _ -> Alcotest.fail "both modes must suppress and release"

let test_tick_sweep_jobs_deterministic () =
  (* Tick-mode runs must be bit-identical whether the sweep executes
     sequentially or on a worker pool. *)
  let config =
    Config.with_damping ~reuse:(Config.Tick 15.) Params.cisco
      { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01 }
  in
  let scenario =
    Scenario.make ~name:"tick-det" ~config (Scenario.Mesh { rows = 3; cols = 3 })
  in
  let seq = Sweep.run ~pulses:[ 1; 2; 3 ] ~jobs:1 scenario in
  let par = Sweep.run ~pulses:[ 1; 2; 3 ] ~jobs:4 scenario in
  let series = Alcotest.(list (pair (float 0.) (float 0.))) in
  Alcotest.check series "convergence series identical" (Sweep.convergence_series seq)
    (Sweep.convergence_series par);
  Alcotest.check series "quiet series identical" (Sweep.quiet_series seq)
    (Sweep.quiet_series par);
  Alcotest.check series "message series identical" (Sweep.message_series seq)
    (Sweep.message_series par)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_tick_reuse_within_one_tick;
    Alcotest.test_case "tick release brackets exact" `Quick test_tick_mode_converges_like_exact;
    Alcotest.test_case "tick-mode sweep deterministic across jobs" `Quick
      test_tick_sweep_jobs_deterministic;
  ]
