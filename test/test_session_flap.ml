(* Session-flap × MRAI interaction: a failed-and-restored session must not
   inherit rate-limit state from its previous life. Regression tests for
   two timer-lifecycle bugs — the shared per-peer MRAI deadline surviving
   peer_down, and parked flush timers / flush markers leaking across the
   flap — plus hook-accounting consistency and multi-prefix restarts. *)

open Rfd_bgp
module Sim = Rfd_engine.Sim
module Builders = Rfd_topology.Builders
module Collector = Rfd_experiment.Collector
module Par_net = Rfd_experiment.Par_net

let p0 = Prefix.v 0
let p1 = Prefix.v 1

let base =
  {
    Config.default with
    Config.mrai = 10.;
    mrai_jitter = (1.0, 1.0);
    link_delay = 0.01;
    link_jitter = 0.;
  }

let make ?(config = base) graph = Fixture.create ~config graph

(* Bug 1: in per-peer MRAI mode, peer_down reset the per-prefix deadlines
   but not the shared peer_deadline — a restored session inherited the old
   rate limit and its full-table re-advertisement sat parked for the rest
   of the stale window. *)
let test_per_peer_deadline_reset_on_flap () =
  let config = { base with Config.mrai_per_peer = true } in
  let net = make ~config (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  (* the announcement at t=0 armed the shared deadline (t=10) *)
  let announce_times = ref [] in
  (Par_net.bus net).Hooks.on_deliver <-
    (fun ~time ~src ~dst u ->
      if src = 0 && dst = 1 && not (Update.is_withdrawal u) then
        announce_times := time :: !announce_times);
  Par_net.schedule_fail_link net ~at:1.0 0 1;
  Par_net.schedule_restore_link net ~at:2.0 0 1;
  Fixture.run ~until:3.0 net;
  (match !announce_times with
  | [ t ] ->
      Alcotest.(check bool)
        "re-advertisement not rate-limited by the dead session's deadline" true
        (t < 2.5)
  | other ->
      Alcotest.failf "expected exactly one re-advertisement by t=3, saw %d"
        (List.length other));
  Alcotest.(check bool) "peer re-learned the route" true
    (Router.best (Par_net.router net 1) p0 <> None);
  Alcotest.(check bool) "converged" true (Par_net.converged net p0)

(* Bug 2: peer_down dropped parked updates but left their armed flush
   timers and flush_scheduled markers behind. The stale state polluted
   quiescence detection (an idle network looked Active until the orphaned
   timer fired) and leaked events. *)
let test_flush_timers_cancelled_on_flap () =
  let net = make (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  (* park a re-announcement behind the MRAI deadline (t=10)… *)
  Par_net.schedule_withdraw net ~at:1.0 ~node:0 p0;
  Par_net.schedule_originate net ~at:1.2 ~node:0 p0;
  Fixture.run ~until:1.5 net;
  let parked = Router.activity (Par_net.router net 0) in
  Alcotest.(check int) "update parked before the flap" 1 parked.Oracle.mrai_pending;
  Alcotest.(check int) "flush armed before the flap" 1 parked.Oracle.scheduled_flushes;
  (* …then kill the session mid-window *)
  Fixture.fail_link net 0 1;
  Fixture.run ~until:2.5 net;
  Alcotest.(check bool) "no residual timer state after peer_down" true
    (Router.activity (Par_net.router net 0) = Oracle.zero);
  Alcotest.(check int) "no orphaned events in the simulator" 0 (Sim.pending (Fixture.sim net));
  Alcotest.(check bool) "oracle: settled while the link is down" true
    (Par_net.converged net p0);
  Alcotest.(check bool) "oracle: fully quiet while the link is down" true
    (Par_net.quiescent net p0)

(* The last pending event is a flush that a session reset superseded: it
   must be dropped — not run, not counted, and not moving the clock past
   the failure. The clock and event count are pinned. *)
let test_superseded_flush_is_last_event () =
  let net = make (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Par_net.schedule_withdraw net ~at:1.0 ~node:0 p0;
  Par_net.schedule_originate net ~at:1.2 ~node:0 p0;
  Par_net.schedule_fail_link net ~at:2.0 0 1;
  Fixture.run ~until:1.5 net;
  Alcotest.(check int) "flush armed for t=10" 1
    (Router.activity (Par_net.router net 0)).Oracle.scheduled_flushes;
  Fixture.run net;
  Alcotest.(check (float 0.)) "clock stops at the failure" 2.0 (Par_net.now net);
  Alcotest.(check int) "events" 5 (Par_net.sim_events net);
  let sim = Fixture.sim net in
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim);
  Alcotest.(check int) "stale post dropped" 0 (Sim.heap_size sim);
  Alcotest.(check int) "no dead entries" 0 (Sim.dead_count sim);
  Alcotest.(check int) "no flush ran" 0 (Par_net.event_counts net).Network.flushes

(* MRAI conformance across a flap: after restore, a parked update must
   flush at the *new* session's deadline — armed by a fresh flush timer,
   not rescued early or stranded by the old one. *)
let test_restored_session_flushes_at_fresh_deadline () =
  let net = make (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Par_net.schedule_withdraw net ~at:1.0 ~node:0 p0;
  Par_net.schedule_originate net ~at:1.2 ~node:0 p0;
  Par_net.schedule_fail_link net ~at:2.0 0 1;
  Par_net.schedule_restore_link net ~at:3.0 0 1;
  (* restore re-advertises at t=3 (fresh budget), arming a deadline of 13;
     this flap parks the final announcement behind it *)
  Par_net.schedule_withdraw net ~at:4.0 ~node:0 p0;
  Par_net.schedule_originate net ~at:4.2 ~node:0 p0;
  let last_announce = ref nan in
  (Par_net.bus net).Hooks.on_deliver <-
    (fun ~time ~src ~dst u ->
      if src = 0 && dst = 1 && not (Update.is_withdrawal u) then last_announce := time);
  Fixture.run ~until:4.5 net;
  let mid = Router.activity (Par_net.router net 0) in
  Alcotest.(check int) "final announcement parked" 1 mid.Oracle.mrai_pending;
  Alcotest.(check int) "fresh flush armed for it" 1 mid.Oracle.scheduled_flushes;
  Alcotest.(check bool) "oracle: not converged while parked" false
    (Par_net.converged net p0);
  Fixture.run net;
  Alcotest.(check bool)
    (Printf.sprintf "flushed at the restored session's deadline (got %.2f)" !last_announce)
    true
    (!last_announce >= 13.0 && !last_announce <= 13.1);
  Alcotest.(check bool) "route delivered" true
    (Router.best (Par_net.router net 1) p0 <> None);
  Alcotest.(check bool) "quiet at the end" true (Par_net.quiescent net p0)

(* Multi-prefix session restart mid-MRAI-window: every prefix's parked
   state is dropped, the full table is re-advertised, and the far side
   relearns everything. *)
let test_multi_prefix_flap_mid_window () =
  let net = make (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Par_net.originate net ~node:0 p1;
  Fixture.run net;
  List.iter
    (fun (prefix : Prefix.t) ->
      Par_net.schedule_withdraw net ~at:1.0 ~node:0 prefix;
      Par_net.schedule_originate net ~at:1.2 ~node:0 prefix)
    [ p0; p1 ];
  Fixture.run ~until:1.5 net;
  Alcotest.(check int) "both prefixes parked" 2
    (Router.activity (Par_net.router net 0)).Oracle.mrai_pending;
  Fixture.fail_link net 0 1;
  Fixture.run ~until:2.0 net;
  Alcotest.(check bool) "all parked state dropped" true
    (Router.activity (Par_net.router net 0) = Oracle.zero);
  Fixture.restore_link net 0 1;
  Fixture.run net;
  List.iter
    (fun (prefix : Prefix.t) ->
      Alcotest.(check bool) "far side relearned" true
        (Router.best (Par_net.router net 2) prefix <> None);
      Alcotest.(check bool) "quiet" true (Par_net.quiescent net prefix))
    [ p0; p1 ]

(* The collector's hook-fed balances must track the routers' live counts
   exactly — including through peer_down's cancellation path. *)
let test_hook_accounting_matches_live_counts () =
  let net = make (Builders.line 3) in
  let collector = Collector.create () in
  Collector.attach collector (Par_net.bus net);
  let check_balances label =
    let a = Par_net.activity net in
    Alcotest.(check int) (label ^ ": pending balance") a.Oracle.mrai_pending
      (Collector.mrai_pending_now collector);
    Alcotest.(check int) (label ^ ": flush balance") a.Oracle.scheduled_flushes
      (Collector.flush_armed_now collector);
    Alcotest.(check int) (label ^ ": reuse balance") a.Oracle.reuse_timers
      (Collector.reuse_timers_now collector)
  in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  check_balances "after initial convergence";
  Par_net.schedule_withdraw net ~at:1.0 ~node:0 p0;
  Par_net.schedule_originate net ~at:1.2 ~node:0 p0;
  Fixture.run ~until:1.5 net;
  check_balances "with an update parked";
  Fixture.fail_link net 0 1;
  Fixture.run ~until:2.0 net;
  check_balances "after session failure";
  Fixture.restore_link net 0 1;
  Fixture.run net;
  check_balances "after drain";
  Alcotest.(check bool) "parked update was accounted" true
    (Collector.mrai_queued_events collector > 0);
  Alcotest.(check (option int)) "mrai activity timestamped" (Some 0)
    (Option.map (fun t -> compare t 1.2 |> min 0 |> max 0) (Collector.last_mrai_time collector))

let suite =
  [
    Alcotest.test_case "per-peer deadline reset on flap" `Quick
      test_per_peer_deadline_reset_on_flap;
    Alcotest.test_case "flush timers cancelled on flap" `Quick
      test_flush_timers_cancelled_on_flap;
    Alcotest.test_case "superseded flush as the last event" `Quick
      test_superseded_flush_is_last_event;
    Alcotest.test_case "fresh deadline after restore" `Quick
      test_restored_session_flushes_at_fresh_deadline;
    Alcotest.test_case "multi-prefix flap mid-window" `Quick test_multi_prefix_flap_mid_window;
    Alcotest.test_case "hook accounting matches live counts" `Quick
      test_hook_accounting_matches_live_counts;
  ]
