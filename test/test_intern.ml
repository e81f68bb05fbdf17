(* The interning layer: list-reference equivalence for AS paths, physical
   sharing of interned paths between routes, digest determinism (intern
   ids must be a pure function of the run), and intern-table behaviour
   under session churn (no id leaks, no collisions). Routes are not
   interned; a network's one intern table holds its paths. *)

open Rfd_bgp
module Rng = Rfd_engine.Rng
module RG = Rfd_topology.Random_graphs
module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Par_net = Rfd_experiment.Par_net

let p0 = Prefix.v 0
let sign x = Stdlib.compare x 0

(* ------------------------------------------------------------------ *)
(* As_path: interned values must behave exactly like the seed-era raw
   int lists under equal / compare / hash / to_list.                   *)

let asn_list = QCheck.(list_of_size (Gen.int_range 0 8) (int_range 0 50))

let prop_list_reference =
  QCheck.Test.make ~name:"as_path matches int-list reference semantics" ~count:500
    (QCheck.pair asn_list asn_list) (fun (la, lb) ->
      let tbl = As_path.create_table () in
      let pa = As_path.intern tbl (As_path.of_list la) in
      let pb = As_path.intern tbl (As_path.of_list lb) in
      As_path.to_list pa = la
      && As_path.equal pa pb = List.equal Int.equal la lb
      && sign (As_path.compare pa pb) = sign (List.compare Int.compare la lb)
      (* equality must also hold across interned/uninterned representations *)
      && As_path.equal (As_path.of_list la) pa
      && As_path.equal pa (As_path.of_list la)
      (* hash is structural: list-equal implies hash-equal *)
      && (not (List.equal Int.equal la lb) || As_path.hash pa = As_path.hash pb)
      (* interning is injective: distinct lists get distinct ids *)
      && (List.equal Int.equal la lb || As_path.intern_id pa <> As_path.intern_id pb))

(* The partition case: a route received from another partition carries a
   path interned in that partition's table. Extending it here must intern
   it here, on the same value a native build gives, and the result must
   still read exactly as the list it stands for. *)
let prop_cross_table =
  QCheck.Test.make ~name:"prepend_interned re-interns another table's tail" ~count:500
    QCheck.(triple asn_list (int_range 0 50) asn_list) (fun (la, asn, lb) ->
      let a = As_path.create_table () and b = As_path.create_table () in
      (* [b] already holds an unrelated path, which may share suffixes *)
      let pb = As_path.intern b (As_path.of_list lb) in
      let pa = As_path.intern a (As_path.of_list la) in
      let q = As_path.prepend_interned b asn pa in
      let l = asn :: la in
      As_path.mem b q
      && q == As_path.intern b (As_path.of_list l)
      && (la = [] || not (As_path.mem b pa))
      && As_path.intern_id q > 0
      && As_path.to_list q = l
      && As_path.length q = List.length l
      && As_path.equal q (As_path.of_list l)
      && As_path.equal q pb = List.equal Int.equal l lb
      && sign (As_path.compare q pb) = sign (List.compare Int.compare l lb)
      && sign (As_path.compare pb q) = sign (List.compare Int.compare lb l)
      && As_path.hash q = As_path.hash (As_path.of_list l)
      && List.for_all (fun x -> As_path.contains q x = List.mem x l) (List.init 52 Fun.id)
      && As_path.origin q = Some (List.nth l (List.length l - 1)))

(* Enough distinct paths that the open-addressing table resizes several
   times: each is found again, as the same value with the same id, and
   the count does not move. *)
let test_tables_resize () =
  let paths = As_path.create_table () in
  let n = 12_000 in
  let asns j = [ j / 1000; (j / 10) mod 100; j mod 10 ] in
  let build j = As_path.intern paths (As_path.of_list (asns j)) in
  let first = Array.init n build in
  let path_count = As_path.table_size paths in
  Alcotest.(check bool) "paths and their suffixes interned" true (path_count >= n);
  let ids = Hashtbl.create n in
  Array.iteri
    (fun j path ->
      let path' = build j in
      if not (path == path') then Alcotest.failf "entry %d not found again" j;
      Alcotest.(check int) "same path id" (As_path.intern_id path) (As_path.intern_id path');
      Alcotest.(check bool) "path is its table's" true (As_path.mem paths path);
      Alcotest.(check (list int)) "path reads back" (asns j) (As_path.to_list path);
      Hashtbl.replace ids (As_path.intern_id path) ())
    first;
  Alcotest.(check int) "distinct ids" n (Hashtbl.length ids);
  Alcotest.(check int) "path count unchanged" path_count (As_path.table_size paths)

(* The hot path of every advertisement: a hit in the path table, by
   prepend or by intern, allocates nothing. *)
let test_hit_allocates_nothing () =
  let paths = As_path.create_table () in
  let tail = As_path.intern paths (As_path.of_list [ 4; 3; 2; 1 ]) in
  let path = As_path.prepend_interned paths 5 tail in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (As_path.prepend_interned paths 5 tail));
    ignore (Sys.opaque_identity (As_path.intern paths path))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words for 20,000 hits" words) true
    (words < 100.)

let test_intern_idempotent () =
  let tbl = As_path.create_table () in
  let p1 = As_path.intern tbl (As_path.of_list [ 3; 1; 2 ]) in
  let p2 = As_path.intern tbl (As_path.of_list [ 3; 1; 2 ]) in
  Alcotest.(check bool) "same list interns to the same value" true (p1 == p2);
  let q = As_path.prepend_interned tbl 7 p1 in
  let q' = As_path.intern tbl (As_path.of_list [ 7; 3; 1; 2 ]) in
  Alcotest.(check bool) "prepend_interned lands on the shared value" true (q == q');
  Alcotest.(check bool) "fresh positive id" true (As_path.intern_id q > 0);
  Alcotest.(check bool) "distinct paths, distinct ids" true
    (As_path.intern_id q <> As_path.intern_id p1);
  Alcotest.(check int) "empty path has id 0" 0 (As_path.intern_id As_path.empty);
  Alcotest.(check int) "uninterned values have id -1" (-1)
    (As_path.intern_id (As_path.of_list [ 9 ]));
  (* every suffix was interned along the way: 3 paths, not counting empty *)
  Alcotest.(check int) "table counts distinct non-empty paths" 4 (As_path.table_size tbl)

(* Routes are built on demand around interned paths: two builds of one
   (prefix, path) are equal and share the path, and a route for another
   prefix shares its spine too. *)
let test_routes_share_paths () =
  let tbl = As_path.create_table () in
  let path = As_path.intern tbl (As_path.of_list [ 1; 2 ]) in
  let r1 = Route.make ~prefix:p0 ~path in
  let r2 =
    Route.make ~prefix:p0 ~path:(As_path.prepend_interned tbl 1 (As_path.of_list [ 2 ]))
  in
  Alcotest.(check bool) "same (prefix, path) routes are equal" true (Route.equal r1 r2);
  Alcotest.(check bool) "paths shared too" true (Route.path r1 == Route.path r2);
  let other =
    Route.make ~prefix:(Prefix.v 1) ~path:(As_path.intern tbl (As_path.of_list [ 1; 2 ]))
  in
  Alcotest.(check bool) "different prefix, different route" false (Route.equal r1 other);
  Alcotest.(check bool) "but the path spine is still shared" true
    (Route.path r1 == Route.path other);
  Alcotest.(check int) "no route is interned" 0 (Route.table_size tbl)

(* ------------------------------------------------------------------ *)
(* Digest determinism: intern ids are assigned in simulation order, so
   re-running the same scenario from scratch must produce a bit-identical
   result digest (this is what makes the interned representation safe to
   marshal — jobs=1 vs jobs=N digest comparisons elsewhere rely on it).   *)

let random_scenario seed =
  let rng = Rng.create seed in
  let n = 5 + Rng.int rng 10 in
  let graph = RG.random_spanning_connected (Rng.split rng) ~n ~extra_edges:(Rng.int rng n) in
  let config =
    Config.with_damping
      ~mode:(match Rng.int rng 3 with 0 -> Config.Plain | 1 -> Config.Rcn | _ -> Config.Selective)
      Rfd_damping.Params.cisco
      { Config.default with Config.mrai = float_of_int (Rng.int rng 4); seed }
  in
  Scenario.make
    ~name:(Printf.sprintf "intern-digest-%d" seed)
    ~config
    ~pulses:(1 + Rng.int rng 3)
    (Scenario.Custom graph)

let prop_digest_deterministic =
  QCheck.Test.make ~name:"result digest is a pure function of the scenario" ~count:15
    (QCheck.int_range 0 100_000) (fun seed ->
      let scenario = random_scenario seed in
      let d1 = Runner.result_digest (Runner.run scenario) in
      let d2 = Runner.result_digest (Runner.run scenario) in
      d1 = d2)

(* ------------------------------------------------------------------ *)
(* Session churn: repeating an identical fail/restore + crash/restart
   episode must not keep allocating intern ids (the path universe is
   fixed), and every path resident in any RIB stays a value of the
   network's shared table.                                              *)

let run_churn_episode net =
  let t0 = Par_net.now net +. 1. in
  Par_net.schedule_fail_link net ~at:t0 1 2;
  Par_net.schedule_restore_link net ~at:(t0 +. 40.) 1 2;
  Par_net.schedule_crash net ~at:(t0 +. 80.) 2;
  Par_net.schedule_restart net ~at:(t0 +. 120.) 2;
  Fixture.run net


let assert_ribs_interned net =
  for node = 0 to Rfd_topology.Graph.num_nodes (Par_net.graph net) - 1 do
    let r = Par_net.router net node in
    List.iter
      (fun prefix ->
        (match Router.best r prefix with
        | Some route ->
            Alcotest.(check bool) "loc-rib path interned" true
              (As_path.intern_id (Route.path route) >= 0)
        | None -> ());
        List.iter
          (fun peer ->
            match Router.rib_in_route r ~peer prefix with
            | Some route ->
                Alcotest.(check bool) "rib-in path interned" true
                  (As_path.intern_id (Route.path route) >= 0)
            | None -> ())
          (Router.peer_ids r))
      (Router.known_prefixes r)
  done

let test_churn_no_leak () =
  let graph = Rfd_topology.Builders.ring 5 in
  let config =
    Config.with_damping Rfd_damping.Params.cisco { Config.default with Config.mrai = 2. }
  in
  let net = Fixture.create ~config graph in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  run_churn_episode net;
  let paths1 = Par_net.paths_interned net in
  Alcotest.(check bool) "churn observed some paths" true (paths1 > 0);
  run_churn_episode net;
  let paths2 = Par_net.paths_interned net in
  run_churn_episode net;
  let paths3 = Par_net.paths_interned net in
  (* The first episode may discover exploration paths the initial
     convergence never produced; after that the path universe is closed,
     so identical episodes must not allocate new ids. *)
  Alcotest.(check int) "path ids stable under repeated churn" paths2 paths3;
  assert_ribs_interned net

let test_restart_reuses_ids () =
  (* A crashed-and-restarted router re-learns its routes from the shared
     table: restarting every non-origin router one by one must not grow
     the table once the universe is closed. *)
  let graph = Rfd_topology.Builders.line 4 in
  let net = Fixture.create graph in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let cycle () =
    for node = 1 to 3 do
      let t0 = Par_net.now net +. 1. in
      Par_net.schedule_crash net ~at:t0 node;
      Par_net.schedule_restart net ~at:(t0 +. 30.) node;
      Fixture.run net
    done
  in
  cycle ();
  let paths1 = Par_net.paths_interned net in
  cycle ();
  let paths2 = Par_net.paths_interned net in
  Alcotest.(check int) "paths stable across restart cycles" paths1 paths2;
  Alcotest.(check bool) "network converged" true (Par_net.converged net p0);
  assert_ribs_interned net

let suite =
  [
    QCheck_alcotest.to_alcotest prop_list_reference;
    QCheck_alcotest.to_alcotest prop_cross_table;
    Alcotest.test_case "intern idempotent, ids unique" `Quick test_intern_idempotent;
    Alcotest.test_case "tables resize, entries found again" `Quick test_tables_resize;
    Alcotest.test_case "a hit allocates nothing" `Quick test_hit_allocates_nothing;
    Alcotest.test_case "routes share interned paths" `Quick test_routes_share_paths;
    QCheck_alcotest.to_alcotest prop_digest_deterministic;
    Alcotest.test_case "churn leaks no intern ids" `Quick test_churn_no_leak;
    Alcotest.test_case "restart reuses intern ids" `Quick test_restart_reuses_ids;
  ]
