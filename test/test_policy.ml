(* Tests for import preference and export filtering. *)

open Rfd_bgp
module Graph = Rfd_topology.Graph
module Relations = Rfd_topology.Relations

let path = As_path.of_list [ 9 ]

(* 0 provider of 1; 1 provider of 3; 1 peers with 2. *)
let relations () =
  let g = Graph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (1, 3) ] in
  Relations.make g
    [
      ((0, 1), Relations.Customer_provider { customer = 1; provider = 0 });
      ((1, 2), Relations.Peer_peer);
      ((1, 3), Relations.Customer_provider { customer = 3; provider = 1 });
    ]

let test_announce_all () =
  let p = Policy.announce_all in
  Alcotest.(check string) "name" "announce-all" (Policy.name p);
  Alcotest.(check int) "flat preference" 0
    (Policy.import_preference p ~me:0 ~from_peer:1 ~path);
  Alcotest.(check bool) "exports everywhere" true
    (Policy.export_allowed p ~me:0 ~learned_from:(Some 1) ~to_peer:2 ~path)

let test_no_valley_import_pref () =
  let p = Policy.no_valley (relations ()) in
  let pref from_peer = Policy.import_preference p ~me:1 ~from_peer ~path in
  Alcotest.(check bool) "customer > peer" true (pref 3 > pref 2);
  Alcotest.(check bool) "peer > provider" true (pref 2 > pref 0)

let test_no_valley_export () =
  let p = Policy.no_valley (relations ()) in
  let export ~learned_from ~to_peer =
    Policy.export_allowed p ~me:1 ~learned_from ~to_peer ~path
  in
  (* learned from customer 3: export to everyone *)
  Alcotest.(check bool) "customer route to provider" true
    (export ~learned_from:(Some 3) ~to_peer:0);
  Alcotest.(check bool) "customer route to peer" true (export ~learned_from:(Some 3) ~to_peer:2);
  (* learned from provider 0: only to customers *)
  Alcotest.(check bool) "provider route to customer" true
    (export ~learned_from:(Some 0) ~to_peer:3);
  Alcotest.(check bool) "provider route to peer blocked" false
    (export ~learned_from:(Some 0) ~to_peer:2);
  (* learned from peer 2: only to customers *)
  Alcotest.(check bool) "peer route to customer" true (export ~learned_from:(Some 2) ~to_peer:3);
  Alcotest.(check bool) "peer route to provider blocked" false
    (export ~learned_from:(Some 2) ~to_peer:0);
  (* own prefixes go everywhere *)
  Alcotest.(check bool) "self route to provider" true (export ~learned_from:None ~to_peer:0);
  Alcotest.(check bool) "self route to peer" true (export ~learned_from:None ~to_peer:2)

let test_custom () =
  let p =
    Policy.custom ~name:"deny-all"
      ~import_preference:(fun ~me:_ ~from_peer:_ ~path:_ -> 1)
      ~export_allowed:(fun ~me:_ ~learned_from:_ ~to_peer:_ ~path:_ -> false)
  in
  Alcotest.(check string) "name" "deny-all" (Policy.name p);
  Alcotest.(check bool) "blocks" false
    (Policy.export_allowed p ~me:0 ~learned_from:None ~to_peer:1 ~path)

(* The decision process scores each candidate on its own path: router 3
   hears prefix 0 as [1 0] from router 1 and as [4 2 0] from router 4, and
   a preference for paths through AS 2 makes it pick the longer path from
   the higher peer id. *)
let test_custom_preference_sees_paths () =
  let g = Graph.of_edges ~num_nodes:5 [ (0, 1); (1, 3); (0, 2); (2, 4); (4, 3) ] in
  let best_at policy =
    let config = { Config.default with Config.mrai = 0.; link_jitter = 0. } in
    let net = Fixture.create ~policy ~config g in
    Rfd_experiment.Par_net.originate net ~node:0 (Prefix.v 0);
    Fixture.run net;
    let r = Rfd_experiment.Par_net.router net 3 in
    ( Option.map (fun route -> As_path.to_list (Route.path route)) (Router.best r (Prefix.v 0)),
      Router.best_peer r (Prefix.v 0) )
  in
  let through asn =
    Policy.custom ~name:(Printf.sprintf "via-%d" asn)
      ~import_preference:(fun ~me ~from_peer:_ ~path ->
        if me = 3 && As_path.contains path asn then 1 else 0)
      ~export_allowed:(fun ~me:_ ~learned_from:_ ~to_peer:_ ~path:_ -> true)
  in
  let check label expected policy =
    Alcotest.(check (pair (option (list int)) (option int))) label expected (best_at policy)
  in
  check "shortest path by default" (Some [ 1; 0 ], Some 1) Policy.announce_all;
  check "a path through AS 2 preferred" (Some [ 4; 2; 0 ], Some 4) (through 2);
  check "a path through AS 1 preferred" (Some [ 1; 0 ], Some 1) (through 1)

(* Property: under no-valley export rules, any propagation path that the
   policy permits hop by hop is valley-free. *)
let prop_no_valley_paths_are_valley_free =
  QCheck.Test.make ~name:"policy-permitted 2-hop propagation is valley-free" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rfd_engine.Rng.create seed in
      let g = Rfd_topology.Random_graphs.barabasi_albert rng ~n:20 ~m:2 in
      let rel = Relations.infer_by_degree g in
      let p = Policy.no_valley rel in
      (* for every path a-b-c the policy allows b to re-export, check
         valley-freeness of [a; b; c] *)
      let ok = ref true in
      for b = 0 to Graph.num_nodes g - 1 do
        let nbrs = Graph.neighbors g b in
        Array.iter
          (fun a ->
            Array.iter
              (fun c ->
                if a <> c then begin
                  let allowed =
                    Policy.export_allowed p ~me:b ~learned_from:(Some a) ~to_peer:c ~path
                  in
                  if allowed && not (Relations.is_valley_free rel [ a; b; c ]) then ok := false
                end)
              nbrs)
          nbrs
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "announce-all" `Quick test_announce_all;
    Alcotest.test_case "no-valley import preference" `Quick test_no_valley_import_pref;
    Alcotest.test_case "no-valley export rules" `Quick test_no_valley_export;
    Alcotest.test_case "custom policy" `Quick test_custom;
    Alcotest.test_case "custom preference scores each path" `Quick
      test_custom_preference_sees_paths;
    QCheck_alcotest.to_alcotest prop_no_valley_paths_are_valley_free;
  ]
