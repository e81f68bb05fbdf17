(* Tests for the fault-injection subsystem: plan validation, deterministic
   expansion, the injector's range checks, loss/duplication/crash semantics
   on live networks, and the per-directed-link FIFO no-reorder property
   under churn. *)

module Fault_plan = Rfd_faults.Fault_plan
module Injector = Rfd_experiment.Injector
module Par_net = Rfd_experiment.Par_net
module Builders = Rfd_topology.Builders
module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
open Rfd_bgp

let fast_config ?(seed = 42) () =
  { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed }

let make_net ?(config = fast_config ()) graph = Fixture.create ~config graph

let prefix = Prefix.v 0

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)

let test_plan_validation () =
  Alcotest.(check bool) "none is trivial" true (Fault_plan.is_trivial Fault_plan.none);
  Alcotest.(check bool) "default make is trivial" true
    (Fault_plan.is_trivial (Fault_plan.make ()));
  Alcotest.(check bool) "none validates" true (Fault_plan.validate Fault_plan.none = Ok ());
  let rejected p = Result.is_error (Fault_plan.validate p) in
  Alcotest.(check bool) "loss > 1" true
    (rejected
       (Fault_plan.make ~degradation:{ Fault_plan.loss = 1.5; duplication = 0. } ()));
  Alcotest.(check bool) "negative duplication" true
    (rejected
       (Fault_plan.make ~degradation:{ Fault_plan.loss = 0.; duplication = -0.1 } ()));
  Alcotest.(check bool) "negative event time" true
    (rejected
       (Fault_plan.make
          ~link_events:[ { Fault_plan.at = -1.; link = (0, 1); action = `Fail } ]
          ()));
  Alcotest.(check bool) "self-loop link" true
    (rejected
       (Fault_plan.make
          ~link_events:[ { Fault_plan.at = 0.; link = (2, 2); action = `Fail } ]
          ()));
  Alcotest.(check bool) "negative crash node" true
    (rejected
       (Fault_plan.make
          ~router_events:[ { Fault_plan.at = 0.; node = -1; action = `Crash } ]
          ()));
  Alcotest.(check bool) "zero flap window" true
    (rejected
       (Fault_plan.make
          ~random_flaps:
            { Fault_plan.cycles = 2; window = 0.; down_mean = 5.; candidates = [] }
          ()));
  Alcotest.(check bool) "per-link degradation checked too" true
    (rejected
       (Fault_plan.make
          ~per_link_degradation:[ ((0, 1), { Fault_plan.loss = 2.; duplication = 0. }) ]
          ()))

let chaos_plan ?(seed = 11) () =
  Fault_plan.make ~name:"chaos" ~seed
    ~random_flaps:{ Fault_plan.cycles = 5; window = 60.; down_mean = 10.; candidates = [] }
    ()

let test_expand_deterministic () =
  let candidates = [ (0, 1); (1, 2); (2, 3) ] in
  let a = Fault_plan.expand ~candidates (chaos_plan ()) in
  let b = Fault_plan.expand ~candidates (chaos_plan ()) in
  Alcotest.(check int) "10 events from 5 cycles" 10 (List.length a);
  Alcotest.(check bool) "same seed, identical timeline" true (a = b);
  let c = Fault_plan.expand ~candidates (chaos_plan ~seed:12 ()) in
  Alcotest.(check bool) "different seed, different timeline" true (a <> c);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        Fault_plan.event_time a <= Fault_plan.event_time b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "expanded timeline sorted by time" true (sorted a);
  Alcotest.check_raises "random flaps need candidates"
    (Invalid_argument
       "Fault_plan.expand: random flaps need candidate links (none in the plan, none \
        supplied)") (fun () -> ignore (Fault_plan.expand (chaos_plan ())));
  (* scheduled events at equal times keep plan order (stable sort) *)
  let plan =
    Fault_plan.make
      ~link_events:
        [
          { Fault_plan.at = 5.; link = (0, 1); action = `Fail };
          { Fault_plan.at = 5.; link = (0, 1); action = `Recover };
        ]
      ()
  in
  match Fault_plan.expand plan with
  | [ Fault_plan.Link { action = `Fail; _ }; Fault_plan.Link { action = `Recover; _ } ] ->
      ()
  | _ -> Alcotest.fail "stable order lost for simultaneous events"

let test_injector_range_checks () =
  let graph = Builders.mesh ~rows:3 ~cols:3 in
  let check_rejected name plan =
    let net = make_net graph in
    match Injector.install plan net with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions the injector (%s)" name msg)
          true
          (String.length msg >= 16 && String.sub msg 0 16 = "Injector.install")
  in
  check_rejected "non-edge link event"
    (Fault_plan.make
       ~link_events:[ { Fault_plan.at = 1.; link = (0, 8); action = `Fail } ]
       ());
  check_rejected "out-of-range crash node"
    (Fault_plan.make
       ~router_events:[ { Fault_plan.at = 1.; node = 99; action = `Crash } ]
       ());
  check_rejected "out-of-range degraded link"
    (Fault_plan.make
       ~per_link_degradation:[ ((0, 99), { Fault_plan.loss = 0.5; duplication = 0. }) ]
       ());
  (* a valid plan installs without touching anything until run *)
  let net = make_net graph in
  Injector.install
    (Fault_plan.make ~degradation:{ Fault_plan.loss = 0.25; duplication = 0.5 } ())
    net;
  Alcotest.(check (pair (float 0.) (float 0.)))
    "default degradation applied to both orientations" (0.25, 0.5)
    (Network.degradation (Fixture.shard net) ~src:1 ~dst:0)

let test_injector_per_link_override () =
  let graph = Builders.line 3 in
  let net = make_net graph in
  Injector.install
    (Fault_plan.make
       ~degradation:{ Fault_plan.loss = 0.1; duplication = 0. }
       ~per_link_degradation:[ ((1, 2), { Fault_plan.loss = 1.; duplication = 0. }) ]
       ())
    net;
  Alcotest.(check (pair (float 0.) (float 0.)))
    "override wins on its directed link" (1., 0.)
    (Network.degradation (Fixture.shard net) ~src:1 ~dst:2);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "reverse direction keeps the default" (0.1, 0.)
    (Network.degradation (Fixture.shard net) ~src:2 ~dst:1)

(* ------------------------------------------------------------------ *)
(* Transport faults on live networks                                   *)

let test_total_loss_blackholes_link () =
  let net = make_net (Builders.line 3) in
  let dropped = ref 0 in
  (Par_net.bus net).Hooks.on_drop <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr dropped);
  Par_net.set_degradation net ~src:1 ~dst:2 ~loss:1. ~duplication:0.;
  Par_net.originate net ~node:0 prefix;
  Fixture.run net;
  Alcotest.(check int) "route stops at the lossy hop" 2
    (Par_net.reachable_count net prefix);
  Alcotest.(check bool) "drops were counted" true (!dropped > 0)

let test_total_duplication_is_harmless () =
  let clean_reach =
    let net = make_net (Builders.ring 5) in
    Par_net.originate net ~node:0 prefix;
    Fixture.run net;
    Par_net.reachable_count net prefix
  in
  let net = make_net (Builders.ring 5) in
  let duplicated = ref 0 in
  (Par_net.bus net).Hooks.on_duplicate <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr duplicated);
  Array.iter
    (fun (u, v) ->
      Par_net.set_degradation net ~src:u ~dst:v ~loss:0. ~duplication:1.;
      Par_net.set_degradation net ~src:v ~dst:u ~loss:0. ~duplication:1.)
    (Rfd_topology.Graph.edges (Builders.ring 5));
  Par_net.originate net ~node:0 prefix;
  Fixture.run net;
  Alcotest.(check int) "duplication changes no outcome" clean_reach
    (Par_net.reachable_count net prefix);
  Alcotest.(check bool) "duplicates were emitted" true (!duplicated > 0);
  Alcotest.(check bool) "still drains to quiet" true (Par_net.quiescent net prefix)

let test_degradation_validation () =
  let net = make_net (Builders.line 3) in
  Alcotest.check_raises "loss outside [0,1]"
    (Invalid_argument "Network.set_degradation: loss probability 1.5 outside [0, 1]")
    (fun () -> Par_net.set_degradation net ~src:0 ~dst:1 ~loss:1.5 ~duplication:0.);
  Alcotest.check_raises "non-adjacent nodes"
    (Invalid_argument "Network: (0,2) is not a link") (fun () ->
      Par_net.set_degradation net ~src:0 ~dst:2 ~loss:0.1 ~duplication:0.)

let test_crash_and_restart () =
  let net = make_net (Builders.line 3) in
  let shard = Fixture.shard net in
  Par_net.originate net ~node:0 prefix;
  Fixture.run net;
  Alcotest.(check int) "full reachability before crash" 3
    (Par_net.reachable_count net prefix);
  Fixture.crash net 1;
  Fixture.crash net 1;
  Fixture.run net;
  Alcotest.(check bool) "router marked down" true (not (Network.router_is_up shard 1));
  Alcotest.(check bool) "incident link not operational" true
    (not (Network.link_operational shard 0 1));
  Alcotest.(check bool) "administrative link state untouched" true
    (Network.link_up shard 0 1);
  Alcotest.(check int) "downstream routes withdrawn" 1
    (Par_net.reachable_count net prefix);
  Fixture.restart net 1;
  Fixture.run net;
  Alcotest.(check bool) "router back up" true (Network.router_is_up shard 1);
  Alcotest.(check bool) "sessions operational again" true
    (Network.link_operational shard 0 1 && Network.link_operational shard 1 2);
  Alcotest.(check int) "full-table re-advertisement restores routes" 3
    (Par_net.reachable_count net prefix);
  Alcotest.check_raises "out-of-range crash"
    (Invalid_argument "Network: node 7 out of range") (fun () ->
      Fixture.crash net 7)

let test_restore_link_defers_to_restart () =
  (* Restoring a link while an endpoint is crashed must not resurrect the
     session; the later restart brings it back. *)
  let net = make_net (Builders.line 3) in
  let shard = Fixture.shard net in
  Par_net.originate net ~node:0 prefix;
  Fixture.run net;
  Fixture.fail_link net 0 1;
  Fixture.crash net 1;
  Fixture.run net;
  Fixture.restore_link net 0 1;
  Fixture.run net;
  Alcotest.(check bool) "link admin-up but endpoint dead" true
    (Network.link_up shard 0 1 && not (Network.link_operational shard 0 1));
  Alcotest.(check int) "no route through a dead router" 1
    (Par_net.reachable_count net prefix);
  Fixture.restart net 1;
  Fixture.run net;
  Alcotest.(check int) "restart completes the recovery" 3
    (Par_net.reachable_count net prefix)

let test_trivial_plan_bit_identical () =
  (* A scenario carrying the empty plan must reproduce the fault-free run
     exactly — installation is a no-op and the fault RNG is never drawn. *)
  let scenario faults =
    Scenario.make ~name:"triv" ~config:(fast_config ()) ~pulses:2 ?faults
      (Scenario.Mesh { rows = 3; cols = 3 })
  in
  let plain = Runner.run (scenario None) in
  let trivial = Runner.run (scenario (Some Fault_plan.none)) in
  Alcotest.(check int) "same events" plain.Runner.sim_events trivial.Runner.sim_events;
  Alcotest.(check int) "same messages" plain.Runner.message_count
    trivial.Runner.message_count;
  Alcotest.(check (float 0.)) "same convergence" plain.Runner.convergence_time
    trivial.Runner.convergence_time

(* ------------------------------------------------------------------ *)
(* FIFO no-reorder property                                            *)

(* Per directed link, every delivery must be either a duplicate of the
   immediately preceding delivery or the next not-yet-delivered send in
   order; anything else is a reorder. Sends swallowed by a down link,
   copies voided by a link failure and injected losses all just advance
   the queue — they can never excuse a reorder. The wire rebuilds each
   update it delivers, so deliveries match sends by value: two sends equal
   by value look the same to every consumer, so any reorder a consumer
   can observe is still one here. *)
let fifo_violations ~seed =
  let graph = Builders.mesh ~rows:3 ~cols:3 in
  let config =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.02; seed }
  in
  let net = Fixture.create ~config graph in
  let hooks = Par_net.bus net in
  let sent : (int * int, Update.t Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let last : (int * int, Update.t) Hashtbl.t = Hashtbl.create 64 in
  let last_time : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref 0 in
  let deliveries = ref 0 in
  let queue_of key =
    match Hashtbl.find_opt sent key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add sent key q;
        q
  in
  hooks.Hooks.on_send <- (fun ~time:_ ~src ~dst u -> Queue.add u (queue_of (src, dst)));
  hooks.Hooks.on_deliver <-
    (fun ~time ~src ~dst u ->
      incr deliveries;
      let key = (src, dst) in
      (match Hashtbl.find_opt last_time key with
      | Some t when time < t -> incr violations
      | _ -> Hashtbl.replace last_time key time);
      match Hashtbl.find_opt last key with
      | Some u' when Update.equal u' u -> () (* injected duplicate of the previous delivery *)
      | _ ->
          let q = queue_of key in
          let rec advance () =
            match Queue.take_opt q with
            | None -> incr violations
            | Some s when Update.equal s u -> Hashtbl.replace last key u
            | Some _ -> advance () (* lost, voided, or swallowed send *)
          in
          advance ());
  Injector.install
    (Fault_plan.make ~name:"churn" ~seed:(seed + 1)
       ~degradation:{ Fault_plan.loss = 0.15; duplication = 0.15 }
       ~random_flaps:
         { Fault_plan.cycles = 4; window = 40.; down_mean = 5.; candidates = [] }
       ())
    net;
  Par_net.originate net ~node:0 prefix;
  Fixture.run net;
  Par_net.schedule_withdraw net ~at:(Par_net.now net +. 5.) ~node:0 prefix;
  Par_net.schedule_originate net ~at:(Par_net.now net +. 15.) ~node:0 prefix;
  Fixture.run net;
  (!violations, !deliveries)

let prop_fifo_no_reorder =
  QCheck.Test.make ~name:"per-link FIFO survives loss, duplication and churn" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let violations, deliveries = fifo_violations ~seed in
      violations = 0 && deliveries > 0)

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "expand deterministic and sorted" `Quick test_expand_deterministic;
    Alcotest.test_case "injector range checks" `Quick test_injector_range_checks;
    Alcotest.test_case "per-link degradation override" `Quick test_injector_per_link_override;
    Alcotest.test_case "total loss blackholes a link" `Quick test_total_loss_blackholes_link;
    Alcotest.test_case "total duplication is harmless" `Quick
      test_total_duplication_is_harmless;
    Alcotest.test_case "degradation validation" `Quick test_degradation_validation;
    Alcotest.test_case "crash and restart" `Quick test_crash_and_restart;
    Alcotest.test_case "restore under crash defers" `Quick test_restore_link_defers_to_restart;
    Alcotest.test_case "trivial plan bit-identical" `Quick test_trivial_plan_bit_identical;
    QCheck_alcotest.to_alcotest prop_fifo_no_reorder;
  ]
