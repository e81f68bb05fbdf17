(* Convergence-oracle tests: the pure classifier, the historical
   convergence-check false positive (update parked in an MRAI pending queue
   with zero messages in flight), and the stable-vs-quiet distinction while
   reuse timers are outstanding. *)

open Rfd_bgp
module Par_net = Rfd_experiment.Par_net
module Builders = Rfd_topology.Builders
module Params = Rfd_damping.Params

let p0 = Prefix.v 0

let fast = { Config.default with Config.mrai = 0.; link_delay = 0.01; link_jitter = 0. }

let make ?(config = fast) graph = Fixture.create ~config graph

(* The pre-oracle convergence check: Loc-RIB fixpoint + empty wire only,
   blind to MRAI pending queues and timers. Kept here as the reference for
   the false-positive regression. *)
let legacy_converged net prefix =
  let shard = Fixture.shard net in
  Network.in_flight shard = 0
  &&
  let ok = ref true in
  for node = 0 to Network.num_routers shard - 1 do
    let r = Par_net.router net node in
    let same =
      match (Router.best r prefix, Router.recompute_best r prefix) with
      | None, None -> true
      | Some a, Some b -> Route.equal a b
      | Some _, None | None, Some _ -> false
    in
    if not same then ok := false
  done;
  !ok

let counts ?(in_flight = 0) ?(mrai_pending = 0) ?(scheduled_flushes = 0) ?(reuse_timers = 0)
    () =
  { Oracle.in_flight; mrai_pending; scheduled_flushes; reuse_timers }

let level = Alcotest.testable Oracle.pp_level ( = )

let test_classify () =
  Alcotest.check level "all zero, fixpoint" Oracle.Quiet
    (Oracle.classify ~rib_fixpoint:true (counts ()));
  Alcotest.check level "no fixpoint" Oracle.Active
    (Oracle.classify ~rib_fixpoint:false (counts ()));
  Alcotest.check level "in flight" Oracle.Active
    (Oracle.classify ~rib_fixpoint:true (counts ~in_flight:1 ()));
  Alcotest.check level "mrai pending" Oracle.Active
    (Oracle.classify ~rib_fixpoint:true (counts ~mrai_pending:1 ()));
  Alcotest.check level "flush armed" Oracle.Active
    (Oracle.classify ~rib_fixpoint:true (counts ~scheduled_flushes:1 ()));
  Alcotest.check level "reuse timers only" Oracle.Stable
    (Oracle.classify ~rib_fixpoint:true (counts ~reuse_timers:2 ()));
  Alcotest.(check bool) "stable is stable" true (Oracle.is_stable Oracle.Stable);
  Alcotest.(check bool) "quiet is stable" true (Oracle.is_stable Oracle.Quiet);
  Alcotest.(check bool) "active is not stable" false (Oracle.is_stable Oracle.Active);
  Alcotest.(check bool) "only quiet is quiet" true
    (Oracle.is_quiet Oracle.Quiet && not (Oracle.is_quiet Oracle.Stable))

let test_counts_arithmetic () =
  let a = counts ~in_flight:1 ~mrai_pending:2 ~scheduled_flushes:3 ~reuse_timers:4 () in
  let b = counts ~in_flight:10 ~mrai_pending:20 ~scheduled_flushes:30 ~reuse_timers:40 () in
  let s = Oracle.add a b in
  Alcotest.(check int) "in_flight" 11 s.Oracle.in_flight;
  Alcotest.(check int) "mrai_pending" 22 s.Oracle.mrai_pending;
  Alcotest.(check int) "scheduled_flushes" 33 s.Oracle.scheduled_flushes;
  Alcotest.(check int) "reuse_timers" 44 s.Oracle.reuse_timers;
  Alcotest.(check bool) "zero is neutral" true (Oracle.add Oracle.zero a = a)

(* The headline regression: construct the exact state the old check called
   converged — an announcement parked behind an MRAI deadline, nothing on
   the wire, every Loc-RIB momentarily at its fixpoint — and assert the
   oracle refuses it. Deterministic: no jitter, fixed delays. *)
let test_false_positive_mrai_pending () =
  let config = { fast with Config.mrai = 5.; mrai_jitter = (1.0, 1.0) } in
  let net = make ~config (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  (* the initial announcement consumed the MRAI budget (deadline now+5) *)
  Par_net.schedule_withdraw net ~at:1.0 ~node:0 p0;
  Par_net.schedule_originate net ~at:1.2 ~node:0 p0;
  (* withdrawals are exempt from rate limiting: the W is sent and delivered;
     the re-announcement parks in the pending queue until the flush at the
     deadline. Stop the clock in that window. *)
  Fixture.run ~until:2.5 net;
  Alcotest.(check int) "wire is empty" 0 (Network.in_flight (Fixture.shard net));
  let a = Par_net.activity net in
  Alcotest.(check int) "one update parked" 1 a.Oracle.mrai_pending;
  Alcotest.(check int) "one flush armed" 1 a.Oracle.scheduled_flushes;
  Alcotest.(check bool) "legacy check claims convergence (the bug)" true
    (legacy_converged net p0);
  Alcotest.(check bool) "oracle rejects it" false (Par_net.converged net p0);
  Alcotest.check level "status is active" Oracle.Active (Par_net.status net p0);
  (* let the flush fire: now the network genuinely converges *)
  Fixture.run net;
  Alcotest.(check bool) "converged after flush" true (Par_net.converged net p0);
  Alcotest.(check bool) "fully quiet after flush" true (Par_net.quiescent net p0);
  Alcotest.(check (option (list int))) "route delivered"
    (Some [ 0 ])
    (Option.map
       (fun r -> As_path.to_list (Route.path r))
       (Router.best (Par_net.router net 1) p0))

(* Stable vs quiet: while a suppressed entry's reuse timer is outstanding,
   routing is converged (stable) but the network is not quiet. *)
let test_stable_vs_quiet_reuse_timer () =
  let config = Config.with_damping Params.cisco fast in
  let net = make ~config (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  (* three flaps, 120 s apart, suppress the isp's entry (cisco params) *)
  for i = 0 to 2 do
    let base = 1. +. (120. *. float_of_int i) in
    Par_net.schedule_withdraw net ~at:base ~node:0 p0;
    Par_net.schedule_originate net ~at:(base +. 60.) ~node:0 p0
  done;
  (* run past the last flap but not to the reuse firing *)
  Fixture.run ~until:400. net;
  Alcotest.(check bool) "isp entry suppressed" true
    (Router.is_suppressed (Par_net.router net 1) ~peer:0 p0);
  let a = Par_net.activity net in
  Alcotest.(check bool) "reuse timer outstanding" true (a.Oracle.reuse_timers > 0);
  Alcotest.check level "stable, not quiet" Oracle.Stable (Par_net.status net p0);
  Alcotest.(check bool) "converged (routing fixpoint)" true (Par_net.converged net p0);
  Alcotest.(check bool) "not quiescent" false (Par_net.quiescent net p0);
  (* drain the reuse timer: quiet, and the route is back *)
  Fixture.run net;
  Alcotest.check level "quiet at the end" Oracle.Quiet (Par_net.status net p0);
  Alcotest.(check bool) "quiescent at the end" true (Par_net.quiescent net p0);
  Alcotest.(check int) "all reachable again" 3 (Par_net.reachable_count net p0)

(* Router-level introspection: per-peer counts sum to the router total.
   Hand-feed the hub of a star so it parks one announcement per spoke. *)
let test_peer_activity_sums () =
  let config = { fast with Config.mrai = 5.; mrai_jitter = (1.0, 1.0) } in
  let g =
    Rfd_topology.Graph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (1, 3) ]
  in
  let net = make ~config g in
  let r1 = Par_net.router net 1 in
  let route path = Route.make ~prefix:p0 ~path:(As_path.of_list path) in
  (* first announcement: forwarded to spokes 2 and 3 right away, consuming
     their MRAI budgets *)
  Router.receive r1 ~from_peer:0 (Update.announce (route [ 0 ]));
  Fixture.run ~until:1.0 net;
  (* a withdraw (exempt) then an attribute change inside the MRAI window:
     the re-announcement parks for each spoke *)
  Router.receive r1 ~from_peer:0 (Update.withdraw p0);
  Router.receive r1 ~from_peer:0 (Update.announce (route [ 9; 0 ]));
  let total = Router.activity r1 in
  let summed =
    List.fold_left
      (fun acc peer -> Oracle.add acc (Router.peer_activity r1 ~peer))
      Oracle.zero (Router.peer_ids r1)
  in
  Alcotest.(check bool) "per-peer sums to total" true (total = summed);
  Alcotest.(check int) "one parked update per spoke" 2 total.Oracle.mrai_pending;
  Alcotest.(check int) "one armed flush per spoke" 2 total.Oracle.scheduled_flushes;
  Alcotest.(check int) "spoke 2 parked" 1
    (Router.peer_activity r1 ~peer:2).Oracle.mrai_pending;
  Alcotest.(check int) "nothing parked towards the feeder" 0
    (Router.peer_activity r1 ~peer:0).Oracle.mrai_pending;
  Alcotest.check_raises "unknown peer rejected"
    (Invalid_argument "Router 1: unknown peer 9") (fun () ->
      ignore (Router.peer_activity r1 ~peer:9));
  (* flushes drain and the network converges for good *)
  Fixture.run net;
  Alcotest.(check bool) "quiet after drain" true (Par_net.quiescent net p0);
  Alcotest.(check bool) "spokes learned the final route" true
    (Router.best (Par_net.router net 2) p0 <> None
    && Router.best (Par_net.router net 3) p0 <> None)

let suite =
  [
    Alcotest.test_case "classify levels" `Quick test_classify;
    Alcotest.test_case "counts arithmetic" `Quick test_counts_arithmetic;
    Alcotest.test_case "false positive: MRAI-parked update" `Quick
      test_false_positive_mrai_pending;
    Alcotest.test_case "stable vs quiet (reuse timer)" `Quick test_stable_vs_quiet_reuse_timer;
    Alcotest.test_case "peer activity sums" `Quick test_peer_activity_sums;
  ]
