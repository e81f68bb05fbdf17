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
module Sim = Rfd_engine.Sim

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

(* A wheel bucket emptied by migration retracts its post; when the same
   bucket is armed again before that post's time, the stale post must be
   dropped and the re-armed one fire once, at the bucket's instant. On a
   3-node line with a 1000 s tick, router 1 parks its entry from peer 0 in
   the t=2000 bucket, a fourth charge migrates it to t=3000 and empties the
   bucket, and the entry from peer 2, suppressed afterwards, re-arms
   t=2000. The event counts are pinned. *)
let test_emptied_bucket_rearmed () =
  let config =
    Config.with_damping ~reuse:(Config.Tick 1000.) Params.cisco
      {
        Config.default with
        Config.mrai = 0.;
        link_delay = 0.01;
        link_jitter = 0.;
        mrai_jitter = (1.0, 1.0);
      }
  in
  let p1 = Prefix.v 1 in
  let net = Fixture.create ~config (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Par_net.originate net ~node:2 p1;
  Fixture.run net;
  let scheduled = ref [] and reused = ref [] in
  let bus = Par_net.bus net in
  bus.Hooks.on_reuse_schedule <-
    (fun ~time ~router ~peer ~prefix:_ ~at ->
      if router = 1 then scheduled := (peer, time, at) :: !scheduled);
  bus.Hooks.on_reuse <-
    (fun ~time ~router ~peer ~prefix:_ ~noisy:_ ->
      if router = 1 then reused := (peer, time) :: !reused);
  let t0 = Par_net.now net +. 1. in
  let flap node prefix offsets =
    List.iter
      (fun w ->
        Par_net.schedule_withdraw net ~at:(t0 +. w) ~node prefix;
        Par_net.schedule_originate net ~at:(t0 +. w +. 0.5) ~node prefix)
      offsets
  in
  flap 0 p0 [ 0.; 10.; 20.; 30. ];
  flap 2 p1 [ 40.; 50.; 60. ];
  Fixture.run net;
  (match List.rev !scheduled with
  | [ (0, t_a, 2000.); (2, t_b, 2000.) ] ->
      Alcotest.(check bool) "bucket re-armed after the migration" true
        (t_a < t0 +. 30. && t_b > t0 +. 30.)
  | _ -> Alcotest.fail "expected peer 0 then peer 2 parked in the t=2000 bucket");
  Alcotest.(check (list (pair int (float 0.)))) "re-armed bucket fires once; migrated entry later"
    [ (2, 2000.); (0, 3000.) ]
    (List.rev !reused);
  Alcotest.(check int) "events" 48 (Par_net.sim_events net);
  Alcotest.(check int) "wheel events" 4 (Par_net.reuse_timer_events net);
  Alcotest.(check int) "every wheel event is a wheel post" 4
    (Par_net.event_counts net).Network.wheels;
  let sim = Fixture.sim net in
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim);
  Alcotest.(check int) "no dead entries" 0 (Sim.dead_count sim)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_tick_reuse_within_one_tick;
    Alcotest.test_case "tick release brackets exact" `Quick test_tick_mode_converges_like_exact;
    Alcotest.test_case "emptied bucket re-armed before its post" `Quick
      test_emptied_bucket_rearmed;
    Alcotest.test_case "tick-mode sweep deterministic across jobs" `Quick
      test_tick_sweep_jobs_deterministic;
  ]
