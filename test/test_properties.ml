(* End-to-end property tests: random topologies, random flap trains —
   protocol-level invariants that must hold for every run. *)

open Rfd_bgp
module Par_net = Rfd_experiment.Par_net
module Rng = Rfd_engine.Rng
module RG = Rfd_topology.Random_graphs

let p0 = Prefix.v 0

type outcome = {
  sent : int;
  delivered : int;
  suppressions : int;
  reuses : int;
  reachable : int;
  nodes : int;
  fixpoint : bool;
  still_suppressed : int;
  stale_sends : string list; (* sends that were not the sender's export *)
}

(* Build a random connected topology, run a random flap train to full
   quiescence, and report the final state. *)
let run_random ~seed ~pulses ~damping ~mode =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 12 in
  let graph = RG.random_spanning_connected (Rng.split rng) ~n ~extra_edges:(Rng.int rng n) in
  let base =
    {
      Config.default with
      Config.mrai = float_of_int (Rng.int rng 4);
      link_delay = 0.01 +. Rng.float rng 0.05;
      link_jitter = Rng.float rng 0.05;
      seed;
    }
  in
  let config =
    if damping then Config.with_damping ~mode Rfd_damping.Params.cisco base else base
  in
  let net = Fixture.create ~config graph in
  let sent = ref 0 and delivered = ref 0 and suppressions = ref 0 and reuses = ref 0 in
  let h = Par_net.bus net in
  h.Hooks.on_send <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr sent);
  h.Hooks.on_deliver <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr delivered);
  h.Hooks.on_suppress <- (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ -> incr suppressions);
  h.Hooks.on_reuse <- (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ ~noisy:_ -> incr reuses);
  let stale_sends = Fixture.tap_exports ~router:(Par_net.router net) h in
  let origin = Rng.int rng n in
  Par_net.originate net ~node:origin p0;
  Fixture.run net;
  let t0 = Par_net.now net +. 1. in
  let interval = 20. +. Rng.float rng 100. in
  for i = 0 to pulses - 1 do
    let base_t = t0 +. (2. *. float_of_int i *. interval) in
    Par_net.schedule_withdraw net ~at:base_t ~node:origin p0;
    Par_net.schedule_originate net ~at:(base_t +. interval) ~node:origin p0
  done;
  Fixture.run net;
  let still_suppressed = ref 0 in
  for node = 0 to n - 1 do
    still_suppressed := !still_suppressed + Router.suppressed_count (Par_net.router net node)
  done;
  {
    sent = !sent;
    delivered = !delivered;
    suppressions = !suppressions;
    reuses = !reuses;
    reachable = Par_net.reachable_count net p0;
    nodes = n;
    fixpoint = Par_net.converged net p0;
    still_suppressed = !still_suppressed;
    stale_sends = stale_sends ();
  }

let seed_pulses = QCheck.(pair (int_range 0 100_000) (int_range 0 6))

(* Besides [check], every update a router sent was its Loc-RIB's export
   at that instant ({!Fixture.tap_exports}). *)
let prop name ~damping ~mode check =
  QCheck.Test.make ~name ~count:60 seed_pulses (fun (seed, pulses) ->
      let o = run_random ~seed ~pulses ~damping ~mode in
      if o.stale_sends <> [] then
        QCheck.Test.fail_reportf "sends that are not the sender's export:@.%s"
          (String.concat "\n" o.stale_sends);
      check o)

let prop_no_damping_full_reachability =
  prop "no damping: every run ends reachable, converged, conserved" ~damping:false
    ~mode:Config.Plain (fun o ->
      o.reachable = o.nodes && o.fixpoint && o.sent = o.delivered && o.suppressions = 0)

let prop_damping_quiesces =
  prop "damping: every suppression is eventually reused; fixpoint holds" ~damping:true
    ~mode:Config.Plain (fun o ->
      o.suppressions = o.reuses && o.still_suppressed = 0 && o.fixpoint
      && o.reachable = o.nodes && o.sent = o.delivered)

let prop_rcn_quiesces =
  prop "rcn: same invariants" ~damping:true ~mode:Config.Rcn (fun o ->
      o.suppressions = o.reuses && o.still_suppressed = 0 && o.fixpoint
      && o.reachable = o.nodes)

let prop_selective_quiesces =
  prop "selective: same invariants" ~damping:true ~mode:Config.Selective (fun o ->
      o.suppressions = o.reuses && o.still_suppressed = 0 && o.fixpoint
      && o.reachable = o.nodes)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_damping_full_reachability;
    QCheck_alcotest.to_alcotest prop_damping_quiesces;
    QCheck_alcotest.to_alcotest prop_rcn_quiesces;
    QCheck_alcotest.to_alcotest prop_selective_quiesces;
  ]
