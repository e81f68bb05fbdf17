(* Router edge cases: duplicate/spurious updates, withdrawal rate limiting,
   session restart re-advertisement, loop-detected announcements, RIB
   accessors, and the Rfd facade conveniences. *)

open Rfd_bgp
module Sim = Rfd_engine.Sim
module Par_net = Rfd_experiment.Par_net
module Builders = Rfd_topology.Builders

let p0 = Prefix.v 0

let fast = { Config.default with Config.mrai = 0.; link_delay = 0.01; link_jitter = 0. }

let make ?(config = fast) graph = Fixture.create ~config graph

let count_deliveries net =
  let n = ref 0 in
  (Par_net.bus net).Hooks.on_deliver <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr n);
  n

let test_duplicate_originate_is_noop () =
  let net = make (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let n = count_deliveries net in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check int) "no messages for duplicate originate" 0 !n

let test_spurious_withdraw_is_noop () =
  let net = make (Builders.line 2) in
  let n = count_deliveries net in
  (* withdrawing a prefix never originated: nothing must happen *)
  Par_net.withdraw net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check int) "no messages" 0 !n

let test_duplicate_announcement_no_penalty () =
  (* A damped router that receives the same announcement twice must not
     charge the penalty for the duplicate. We force a duplicate by failing
     and restoring an unrelated link, triggering a full re-advertisement. *)
  let config = Config.with_damping Rfd_damping.Params.cisco fast in
  let net = make ~config (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check (float 0.)) "no penalty initially" 0.
    (Router.penalty (Par_net.router net 1) ~peer:0 p0);
  (* session flap on (1,2) makes 1 re-advertise to 2; 2's entry already
     held the same route, so the withdrawal (session down) counts but the
     identical re-announcement after peer_up counts as re-announcement. *)
  Fixture.fail_link net 1 2;
  Fixture.run net;
  Fixture.restore_link net 1 2;
  Fixture.run net;
  (* entry at 1 for peer 0 was never touched: still zero *)
  Alcotest.(check (float 0.)) "unrelated entry untouched" 0.
    (Router.penalty (Par_net.router net 1) ~peer:0 p0);
  Alcotest.(check int) "all reachable" 3 (Par_net.reachable_count net p0)

let test_withdrawal_rate_limiting () =
  (* With withdrawal rate limiting on, a W-A-W burst inside one MRAI window
     coalesces: the peer sees at most one message of the burst's net
     effect after the flush. *)
  let run limiting =
    let config =
      { fast with Config.mrai = 5.; withdrawal_rate_limiting = limiting }
    in
    let net = make ~config (Builders.line 2) in
    Par_net.originate net ~node:0 p0;
    Fixture.run net;
    let n = count_deliveries net in
    let t = Par_net.now net +. 0.5 in
    Par_net.schedule_withdraw net ~at:t ~node:0 p0;
    Par_net.schedule_originate net ~at:(t +. 0.1) ~node:0 p0;
    Par_net.schedule_withdraw net ~at:(t +. 0.2) ~node:0 p0;
    Fixture.run net;
    (!n, Router.best (Par_net.router net 1) p0)
  in
  let unlimited, final_route_a = run false in
  let limited, final_route_b = run true in
  Alcotest.(check bool) "rate limiting coalesces withdrawals" true (limited <= unlimited);
  (* both end withdrawn (last event is a W) *)
  Alcotest.(check bool) "final state unreachable (no limiting)" true (final_route_a = None);
  Alcotest.(check bool) "final state unreachable (limiting)" true (final_route_b = None)

let test_session_restart_readvertises () =
  let p1 = Prefix.v 1 in
  let net = make (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Par_net.originate net ~node:0 p1;
  Fixture.run net;
  Fixture.fail_link net 0 1;
  Fixture.run net;
  Alcotest.(check bool) "both lost" true
    (Router.best (Par_net.router net 2) p0 = None
    && Router.best (Par_net.router net 2) p1 = None);
  Fixture.restore_link net 0 1;
  Fixture.run net;
  Alcotest.(check bool) "both prefixes re-learned" true
    (Router.best (Par_net.router net 2) p0 <> None
    && Router.best (Par_net.router net 2) p1 <> None)

let test_loop_detected_announce_treated_as_withdraw () =
  (* Hand-feed router 1 (peered with 0 in a 2-line) an announcement whose
     path contains 1 itself: it must not install it. *)
  let net = make (Builders.line 2) in
  let r1 = Par_net.router net 1 in
  let looped =
    Update.announce (Route.make ~prefix:p0 ~path:(As_path.of_list [ 0; 1; 5 ]))
  in
  Router.receive r1 ~from_peer:0 looped;
  Alcotest.(check bool) "not installed" true (Router.best r1 p0 = None);
  Alcotest.(check bool) "rib-in empty too" true (Router.rib_in_route r1 ~peer:0 p0 = None)

let test_rib_accessors () =
  let net = make (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let r1 = Par_net.router net 1 in
  Alcotest.(check (list int)) "peer ids" [ 0; 2 ] (Router.peer_ids r1);
  Alcotest.(check int) "id" 1 (Router.id r1);
  Alcotest.(check bool) "originates" true (Router.originates (Par_net.router net 0) p0);
  Alcotest.(check bool) "does not originate" false (Router.originates r1 p0);
  Alcotest.(check (option int)) "best peer" (Some 0) (Router.best_peer r1 p0);
  Alcotest.(check (option int)) "origin best peer none" None
    (Router.best_peer (Par_net.router net 0) p0);
  (match Router.rib_in_route r1 ~peer:0 p0 with
  | Some route -> Alcotest.(check int) "rib-in path" 1 (Route.path_length route)
  | None -> Alcotest.fail "rib-in entry expected");
  Alcotest.(check (option int)) "recompute matches best"
    (Option.map Route.path_length (Router.best r1 p0))
    (Option.map Route.path_length (Router.recompute_best r1 p0))

let test_connect_validation () =
  let sim = Sim.create () in
  let idle = Sim.channel sim (fun _ _ -> ()) in
  let ports =
    {
      Router.transmit = (fun _ _ -> ());
      flush_on = idle;
      reuse_on = idle;
      wheel_on = idle;
      node_bits = 1;
    }
  in
  let r =
    Router.create ~sim ~id:0 ~policy:Policy.announce_all ~config:fast ~damping:None
      ~rng:(Rfd_engine.Rng.create 1) ~hooks:(Hooks.create ()) ~ports ()
  in
  Alcotest.check_raises "self peer" (Invalid_argument "Router.connect: cannot peer with self")
    (fun () -> Router.connect r ~peer:0 ~link:0);
  Router.connect r ~peer:1 ~link:0;
  Alcotest.check_raises "duplicate peer" (Invalid_argument "Router.connect: duplicate peer 1")
    (fun () -> Router.connect r ~peer:1 ~link:2);
  Alcotest.check_raises "link beyond the timer key range"
    (Invalid_argument "Router.connect: link 8388608 outside the timer key range") (fun () ->
      Router.connect r ~peer:2 ~link:(1 lsl 23))

(* Sessions are ranks of one router's slot columns: taking down the
   middle rank must touch only its own slots. Router 1 peers with 0, 2
   and 3 (ranks 0, 1, 2); 0 flaps p0 until router 1 suppresses it, 3
   flaps p1 once, and 2 originates p0 and p2. *)
let test_peer_down_middle_rank () =
  let config = Config.with_damping Rfd_damping.Params.cisco fast in
  let graph = Rfd_topology.Graph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (1, 3) ] in
  let net = make ~config graph in
  let p1 = Prefix.v 1 and p2 = Prefix.v 2 in
  Par_net.originate net ~node:0 p0;
  Par_net.originate net ~node:2 p0;
  Par_net.originate net ~node:2 p2;
  Par_net.originate net ~node:3 p1;
  Fixture.run net;
  let t0 = Par_net.now net +. 1. in
  for j = 0 to 3 do
    let at = t0 +. (10. *. float_of_int j) in
    Par_net.schedule_withdraw net ~at ~node:0 p0;
    Par_net.schedule_originate net ~at:(at +. 5.) ~node:0 p0
  done;
  Par_net.schedule_withdraw net ~at:t0 ~node:3 p1;
  Par_net.schedule_originate net ~at:(t0 +. 5.) ~node:3 p1;
  Fixture.run ~until:(t0 +. 60.) net;
  let r1 = Par_net.router net 1 in
  Alcotest.(check (list int)) "three sessions" [ 0; 2; 3 ] (Router.peer_ids r1);
  let snapshot peer =
    List.map
      (fun p ->
        ( Option.map (Format.asprintf "%a" Route.pp) (Router.rib_in_route r1 ~peer p),
          Router.penalty r1 ~peer p,
          Router.is_suppressed r1 ~peer p ))
      [ p0; p1; p2 ]
  in
  let before0 = snapshot 0 and before3 = snapshot 3 in
  Alcotest.(check bool) "rank 0 holds a suppressed entry" true (Router.is_suppressed r1 ~peer:0 p0);
  Alcotest.(check bool) "rank 2 holds a charged entry" true (Router.penalty r1 ~peer:3 p1 > 0.);
  Alcotest.(check bool) "rank 1 holds routes" true (Router.rib_in_route r1 ~peer:2 p2 <> None);
  Router.peer_down r1 ~peer:2;
  let entry = Alcotest.(list (triple (option string) (float 0.) bool)) in
  Alcotest.check entry "rank 0 unchanged" before0 (snapshot 0);
  Alcotest.check entry "rank 2 unchanged" before3 (snapshot 3);
  Alcotest.(check bool) "rank 1 down" false (Router.session_up r1 ~peer:2);
  Alcotest.(check bool) "rank 1's routes withdrawn" true
    (List.for_all (fun p -> Router.rib_in_route r1 ~peer:2 p = None) [ p0; p1; p2 ]);
  Alcotest.(check bool) "rank 1's withdrawals charged" true (Router.penalty r1 ~peer:2 p2 > 0.)

(* Once a router holds RIB slots its sessions are fixed: a new session
   would move every slot, so it is refused. *)
let test_connect_after_slots () =
  let net = make (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let r1 = Par_net.router net 1 in
  Alcotest.check_raises "connect refused"
    (Invalid_argument "Router.connect: router 1 already holds RIB slots for its sessions")
    (fun () -> Router.connect r1 ~peer:5 ~link:7);
  Alcotest.(check (list int)) "sessions unchanged" [ 0 ] (Router.peer_ids r1);
  Alcotest.(check bool) "route kept" true (Router.rib_in_route r1 ~peer:0 p0 <> None)

let test_facade_conveniences () =
  Alcotest.(check bool) "version non-empty" true (String.length Rfd.version > 0);
  let net = Rfd.Par_net.create ~config:Rfd.Config.default ~partitions:1 (Builders.line 2) in
  Rfd.Par_net.originate net ~node:0 p0;
  ignore (Rfd.Par_net.drive net);
  Alcotest.(check bool) "Par_net drives a network" true (Rfd.Par_net.now net > 0.);
  Alcotest.(check bool) "cisco config damps" true
    (Rfd.cisco_damping_config.Config.damping <> None);
  Alcotest.(check bool) "rcn config mode" true
    (Rfd.rcn_damping_config.Config.damping_mode = Config.Rcn);
  let r = Rfd.simulate_flaps ~pulses:0 (Rfd.Scenario.make (Rfd.Scenario.Mesh { rows = 3; cols = 3 })) in
  Alcotest.(check int) "simulate_flaps override" 0 r.Rfd.Runner.message_count

let test_per_peer_mrai_paces_across_prefixes () =
  (* In per-peer mode, announcements for different prefixes to the same
     peer share one MRAI clock: p1's flush at t = 10 restarts it, so after
     a simultaneous change to both prefixes at t = 10.61 both wait for
     t = 20 and leave together, though p0 was last announced at t = 0.
     Per prefix, each waits only for its own deadline (t = 10). *)
  let run per_peer =
    let config =
      { fast with Config.mrai = 10.; mrai_per_peer = per_peer; mrai_jitter = (1.0, 1.0) }
    in
    let net = make ~config (Builders.line 2) in
    let p1 = Prefix.v 1 in
    Par_net.originate net ~node:0 p0;
    Par_net.originate net ~node:0 p1;
    Fixture.run net;
    (* burn the MRAI budget with a change, then change both prefixes *)
    let announce_times = ref [] in
    (Par_net.bus net).Hooks.on_deliver <-
      (fun ~time ~src ~dst u ->
        if src = 0 && dst = 1 && not (Update.is_withdrawal u) then
          announce_times := time :: !announce_times);
    let t = Par_net.now net +. 0.5 in
    Par_net.schedule_withdraw net ~at:t ~node:0 p0;
    Par_net.schedule_originate net ~at:(t +. 0.1) ~node:0 p0;
    Par_net.schedule_withdraw net ~at:t ~node:0 p1;
    Par_net.schedule_originate net ~at:(t +. 0.1) ~node:0 p1;
    Fixture.run net;
    List.sort Float.compare !announce_times
  in
  (match run true with
  | [ a; b ] ->
      Alcotest.(check bool) "both wait for the shared deadline" true (a >= 20.);
      Alcotest.(check bool) "and leave together" true (b -. a < 1e-6)
  | _ -> Alcotest.fail "expected two announcements");
  match run false with
  | [ a; b ] ->
      Alcotest.(check bool) "per-prefix mode does not pace across prefixes" true
        (a < 11. && b < 11.)
  | _ -> Alcotest.fail "expected two announcements"

(* Every announcement sent and delivered, as (src, dst, prefix id, time),
   newest first. *)
let record_announcements net =
  let sent = ref [] and delivered = ref [] in
  let bus = Par_net.bus net in
  let keep log ~time ~src ~dst = function
    | Update.Announce { route; _ } ->
        log := (src, dst, Prefix.to_int (Route.prefix route), time) :: !log
    | Update.Withdraw _ -> ()
  in
  bus.Hooks.on_send <- keep sent;
  bus.Hooks.on_deliver <- keep delivered;
  (sent, delivered)

let per_peer_line () =
  let config =
    {
      Config.default with
      Config.mrai = 10.;
      mrai_jitter = (1., 1.);
      link_jitter = 0.;
      mrai_per_peer = true;
    }
  in
  make ~config (Builders.line 3)

(* Times of the announcements of [prefix] from [src] to [dst] in [log],
   in order. *)
let times log ~src ~dst prefix =
  List.filter_map
    (fun (s, d, p, time) -> if s = src && d = dst && p = prefix then Some time else None)
    (List.rev !log)

let test_per_peer_flush_releases_batch () =
  (* Router 0 originates prefixes 1 and 2 at t = 0 (2 waits for the
     per-peer deadline at t = 10), withdraws both at t = 1 and re-announces
     both at t = 2, so both are parked behind that deadline. Both leave at
     t = 10 and reach router 1 at t = 10.05; each later flush due at that
     instant used to find the deadline moved on by the first send and wait
     until t = 20. Router 1 forwards prefix 1 at once, which starts its own
     per-peer interval, so prefix 2, arriving 1 ns later, waits for it. *)
  let net = per_peer_line () in
  let p1 = Prefix.v 1 and p2 = Prefix.v 2 in
  let sent, delivered = record_announcements net in
  List.iter
    (fun (at, op) -> List.iter (fun p -> op net ~at ~node:0 p) [ p1; p2 ])
    [
      (0., Par_net.schedule_originate);
      (1., Par_net.schedule_withdraw);
      (2., Par_net.schedule_originate);
    ];
  Fixture.run net;
  let close = Alcotest.(list (float 1e-6)) in
  Alcotest.(check close) "router 0 announces prefix 1" [ 0.; 10. ] (times sent ~src:0 ~dst:1 1);
  Alcotest.(check close) "and prefix 2 with it at t = 10" [ 10. ] (times sent ~src:0 ~dst:1 2);
  Alcotest.(check close) "both reach router 1 at t = 10.05" [ 10.05; 10.05 ]
    (times delivered ~src:0 ~dst:1 1 @ times delivered ~src:0 ~dst:1 2
    |> List.filter (fun time -> time > 2.));
  Alcotest.(check close) "router 1 forwards prefix 1 at once" [ 0.05; 10.05 ]
    (times sent ~src:1 ~dst:2 1);
  Alcotest.(check close) "and prefix 2 after its own interval" [ 20.05 ]
    (times sent ~src:1 ~dst:2 2)

let test_per_peer_flush_not_early () =
  (* A flush armed before a same-instant send must not fire early. Router
     1's re-announcement of prefix 1 to router 0 is parked behind the
     per-peer deadline at t = 10. Operations at t = 10 run before that
     flush (an operation's tag is its op-table row; the flush's is the
     session's directed link, here 1, times 2^31 plus the prefix): they
     withdraw the prefix, announce it (sent at once, as the deadline has
     passed, and the session's deadline moves to t = 20), withdraw it and
     announce it again, which parks behind the still-armed flush. The
     flush must keep it parked until t = 20, not announce the prefix a
     second time at t = 10, and must not report it sent. *)
  let net = per_peer_line () in
  let p1 = Prefix.v 1 in
  let sent, _ = record_announcements net in
  let at_ten = ref [] in
  (Par_net.bus net).Hooks.on_mrai <-
    (fun ~time ~router ~peer ~prefix action ->
      if time = 10. && router = 1 && peer = 0 && Prefix.equal prefix p1 then
        at_ten := Hooks.mrai_action_to_string action :: !at_ten);
  List.iter
    (fun (at, op) -> op net ~at ~node:1 p1)
    [
      (0., Par_net.schedule_originate);
      (1., Par_net.schedule_withdraw);
      (2., Par_net.schedule_originate);
      (10., Par_net.schedule_withdraw);
      (10., Par_net.schedule_originate);
      (10., Par_net.schedule_withdraw);
      (10., Par_net.schedule_originate);
    ];
  Fixture.run net;
  Alcotest.(check (list (float 1e-9))) "announcements one interval apart" [ 0.; 10.; 20. ]
    (times sent ~src:1 ~dst:0 1);
  Alcotest.(check (list string)) "the flush re-arms without reporting a send"
    (List.map Hooks.mrai_action_to_string
       Hooks.[ Mrai_superseded; Mrai_queued; Flush_fired; Flush_armed ])
    (List.rev !at_ten)

let test_in_flight_messages_dropped_on_failure () =
  (* Fail a link while an update is in flight on it: the update must not be
     delivered after the failure. *)
  let config = { fast with Config.link_delay = 5. } in
  let net = make ~config (Builders.line 2) in
  let delivered = count_deliveries net in
  Par_net.originate net ~node:0 p0;
  (* announcement to peer 1 is now in flight with 5 s delay; kill the link
     after 1 s *)
  Par_net.schedule_fail_link net ~at:(Par_net.now net +. 1.) 0 1;
  Fixture.run net;
  Alcotest.(check int) "in-flight update dropped" 0 !delivered;
  Alcotest.(check bool) "peer never learned route" true
    (Router.best (Par_net.router net 1) p0 = None)

let suite =
  [
    Alcotest.test_case "duplicate originate" `Quick test_duplicate_originate_is_noop;
    Alcotest.test_case "spurious withdraw" `Quick test_spurious_withdraw_is_noop;
    Alcotest.test_case "duplicate announcement penalty" `Quick
      test_duplicate_announcement_no_penalty;
    Alcotest.test_case "withdrawal rate limiting" `Quick test_withdrawal_rate_limiting;
    Alcotest.test_case "session restart re-advertises" `Quick test_session_restart_readvertises;
    Alcotest.test_case "loop-detected announce" `Quick
      test_loop_detected_announce_treated_as_withdraw;
    Alcotest.test_case "rib accessors" `Quick test_rib_accessors;
    Alcotest.test_case "connect validation" `Quick test_connect_validation;
    Alcotest.test_case "peer down on the middle rank" `Quick test_peer_down_middle_rank;
    Alcotest.test_case "connect after slots refused" `Quick test_connect_after_slots;
    Alcotest.test_case "facade conveniences" `Quick test_facade_conveniences;
    Alcotest.test_case "per-peer MRAI pacing" `Quick test_per_peer_mrai_paces_across_prefixes;
    Alcotest.test_case "per-peer flush releases the batch" `Quick
      test_per_peer_flush_releases_batch;
    Alcotest.test_case "per-peer flush never fires early" `Quick test_per_peer_flush_not_early;
    Alcotest.test_case "in-flight drop on failure" `Quick
      test_in_flight_messages_dropped_on_failure;
  ]
