(* Drive the library from a hand-written topology file: parse an edge list
   with AS relationships, run a flap scenario under the no-valley policy,
   and print per-phase numbers. Demonstrates Edge_list, Relations, custom
   Scenario topologies and the damped-link gauge.

   Run with: dune exec examples/custom_topology.exe *)

let topology_text =
  {|# A tiny provider hierarchy: 0 and 1 are tier-1s peering with each
# other; 2 and 3 are their customers and peer with each other; 4 and 5
# are stub customers.
# nodes: 6
0 1 p2p
0 2 p2c
1 3 p2c
2 3 p2p
2 4 p2c
3 5 p2c
|}

let () =
  let relations =
    match Rfd.Edge_list.parse topology_text with
    | Ok rel -> rel
    | Error msg -> failwith ("topology parse error: " ^ msg)
  in
  let graph = Rfd.Relations.graph relations in
  Format.printf "Loaded %a@." Rfd.Graph.pp graph;
  Format.printf "Valley-free check for [4; 2; 0; 1; 3; 5]: %b@.@."
    (Rfd.Relations.is_valley_free relations [ 4; 2; 0; 1; 3; 5 ]);

  (* Damping at every node, Juniper parameters this time. *)
  let config = Rfd.Config.with_damping Rfd.Params.juniper Rfd.Config.default in
  let net =
    Rfd.Par_net.create ~policy:(Rfd.Policy.no_valley relations) ~config ~partitions:1 graph
  in
  let prefix = Rfd.Prefix.v 0 in

  (* Node 5 originates; watch suppression build up at its provider (3). *)
  Rfd.Par_net.originate net ~node:5 prefix;
  ignore (Rfd.Par_net.drive net);
  Format.printf "Initially reachable from %d/%d routers@."
    (Rfd.Par_net.reachable_count net prefix)
    (Rfd.Graph.num_nodes graph);

  (* Four quick pulses: enough to cross Juniper's 3000 cut-off at node 3. *)
  let t0 = Rfd.Par_net.now net +. 1. in
  for i = 0 to 3 do
    let base = t0 +. (120. *. float_of_int i) in
    Rfd.Par_net.schedule_withdraw net ~at:base ~node:5 prefix;
    Rfd.Par_net.schedule_originate net ~at:(base +. 60.) ~node:5 prefix
  done;
  (* Run to t0 + 500 s and read the penalties at that instant. *)
  ignore (Rfd.Par_net.drive ~until:(t0 +. 500.) net);
  Rfd.Par_net.advance_all net ~time:(t0 +. 500.);
  Format.printf "After the flap train: provider 3 suppressed the stub's route: %b@."
    (Rfd.Router.is_suppressed (Rfd.Par_net.router net 3) ~peer:5 prefix);
  Format.printf "  penalty at 3 for peer 5: %.0f (cut-off %g)@."
    (Rfd.Router.penalty (Rfd.Par_net.router net 3) ~peer:5 prefix)
    Rfd.Params.juniper.Rfd.Params.cutoff;
  Format.printf "  reachable meanwhile: %d/%d@."
    (Rfd.Par_net.reachable_count net prefix)
    (Rfd.Graph.num_nodes graph);

  (* Let every reuse timer fire. *)
  ignore (Rfd.Par_net.drive net);
  Format.printf "After reuse timers fire (t = %.0f s): reachable %d/%d, converged %b@."
    (Rfd.Par_net.now net)
    (Rfd.Par_net.reachable_count net prefix)
    (Rfd.Graph.num_nodes graph)
    (Rfd.Par_net.converged net prefix)
