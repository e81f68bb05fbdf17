(* Transport-layer guarantees: per-link FIFO under jitter, quiescence
   bookkeeping, and simulator edge cases surfaced through the network. *)

open Rfd_bgp
module Par_net = Rfd_experiment.Par_net
module Builders = Rfd_topology.Builders

let p0 = Prefix.v 0

let test_fifo_under_jitter () =
  (* Huge jitter relative to the inter-send gap: without the FIFO floor,
     updates would reorder and the receiver could end on stale state. We
     check both that delivery order equals send order on the (0 -> 1) link
     and that the final state matches the last event (an announcement). *)
  let config =
    {
      Config.default with
      Config.mrai = 0.;
      link_delay = 0.05;
      link_jitter = 5.0;
      seed = 99;
    }
  in
  let net = Fixture.create ~config (Builders.line 2) in
  let sent = ref [] and delivered = ref [] in
  let h = Par_net.bus net in
  h.Hooks.on_send <-
    (fun ~time:_ ~src ~dst u ->
      if src = 0 && dst = 1 then sent := Update.is_withdrawal u :: !sent);
  h.Hooks.on_deliver <-
    (fun ~time:_ ~src ~dst u ->
      if src = 0 && dst = 1 then delivered := Update.is_withdrawal u :: !delivered);
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  for i = 0 to 19 do
    let t = Par_net.now net +. 0.01 +. (0.02 *. float_of_int i) in
    if i mod 2 = 0 then Par_net.schedule_withdraw net ~at:t ~node:0 p0
    else Par_net.schedule_originate net ~at:t ~node:0 p0
  done;
  Fixture.run net;
  Alcotest.(check (list bool)) "delivery order = send order" (List.rev !sent)
    (List.rev !delivered);
  Alcotest.(check int) "ends reachable (last event was announce)" 2
    (Par_net.reachable_count net p0);
  Alcotest.(check bool) "fixpoint" true (Par_net.converged net p0)

let test_delivery_times_monotone_per_link () =
  let config =
    { Config.default with Config.mrai = 0.; link_delay = 0.01; link_jitter = 2.0; seed = 3 }
  in
  let net = Fixture.create ~config (Builders.ring 4) in
  let last = Hashtbl.create 8 in
  let ok = ref true in
  (Par_net.bus net).Hooks.on_deliver <-
    (fun ~time ~src ~dst _ ->
      (match Hashtbl.find_opt last (src, dst) with
      | Some prev when time < prev -> ok := false
      | _ -> ());
      Hashtbl.replace last (src, dst) time);
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Par_net.withdraw net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check bool) "per-link delivery times never regress" true !ok

let test_failed_link_sends_are_dropped_silently () =
  let config = { Config.default with Config.mrai = 0.; link_jitter = 0. } in
  let net = Fixture.create ~config (Builders.ring 4) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Fixture.fail_link net 0 1;
  Fixture.run net;
  (* further changes while the link is down: no deliveries on (0, 1) *)
  let on_dead_link = ref 0 in
  (Par_net.bus net).Hooks.on_deliver <-
    (fun ~time:_ ~src ~dst _ ->
      if (src = 0 && dst = 1) || (src = 1 && dst = 0) then incr on_dead_link);
  Par_net.withdraw net ~node:0 p0;
  Fixture.run net;
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Alcotest.(check int) "nothing crosses a dead link" 0 !on_dead_link;
  (* the long way round still works *)
  Alcotest.(check int) "reachable via the other side" 4 (Par_net.reachable_count net p0)

let test_double_fail_restore_idempotent () =
  let net = Fixture.create (Builders.ring 4) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  Fixture.fail_link net 0 1;
  Fixture.fail_link net 0 1;
  Fixture.run net;
  Fixture.restore_link net 0 1;
  Fixture.restore_link net 0 1;
  Fixture.run net;
  Alcotest.(check bool) "link up" true (Network.link_up (Fixture.shard net) 0 1);
  Alcotest.(check int) "reconverged" 4 (Par_net.reachable_count net p0);
  Alcotest.check_raises "non-adjacent" (Invalid_argument "Network: (0,2) is not a link")
    (fun () -> Fixture.fail_link net 0 2)

let test_scheduled_link_events () =
  let config = { Config.default with Config.mrai = 0. } in
  let net = Fixture.create ~config (Builders.ring 4) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let t = Par_net.now net in
  Par_net.schedule_fail_link net ~at:(t +. 5.) 0 1;
  Par_net.schedule_restore_link net ~at:(t +. 50.) 0 1;
  Fixture.run ~until:(t +. 20.) net;
  Alcotest.(check bool) "down in between" false (Network.link_up (Fixture.shard net) 0 1);
  Fixture.run net;
  Alcotest.(check bool) "up afterwards" true (Network.link_up (Fixture.shard net) 0 1);
  Alcotest.(check int) "reconverged" 4 (Par_net.reachable_count net p0)

let test_router_accessor_validation () =
  let net = Fixture.create (Builders.line 2) in
  Alcotest.check_raises "bad node" (Invalid_argument "Network.router: node 5 out of range")
    (fun () -> ignore (Network.router (Fixture.shard net) 5));
  Alcotest.(check int) "router count" 2 (Network.num_routers (Fixture.shard net))

let suite =
  [
    Alcotest.test_case "FIFO under jitter" `Quick test_fifo_under_jitter;
    Alcotest.test_case "monotone per-link delivery" `Quick
      test_delivery_times_monotone_per_link;
    Alcotest.test_case "dead-link sends dropped" `Quick
      test_failed_link_sends_are_dropped_silently;
    Alcotest.test_case "fail/restore idempotent" `Quick test_double_fail_restore_idempotent;
    Alcotest.test_case "scheduled link events" `Quick test_scheduled_link_events;
    Alcotest.test_case "accessor validation" `Quick test_router_accessor_validation;
  ]
