(* Tests for random topology generators. *)

module Graph = Rfd_topology.Graph
module RG = Rfd_topology.Random_graphs
module Rng = Rfd_engine.Rng

let test_erdos_renyi_extremes () =
  let g0 = RG.erdos_renyi (Rng.create 1) ~n:10 ~p:0. in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.num_edges g0);
  let g1 = RG.erdos_renyi (Rng.create 1) ~n:10 ~p:1. in
  Alcotest.(check int) "p=1 complete" 45 (Graph.num_edges g1)

let test_erdos_renyi_determinism () =
  let a = RG.erdos_renyi (Rng.create 7) ~n:30 ~p:0.2 in
  let b = RG.erdos_renyi (Rng.create 7) ~n:30 ~p:0.2 in
  Alcotest.(check bool) "same seed same graph" true (Graph.equal a b);
  let c = RG.erdos_renyi (Rng.create 8) ~n:30 ~p:0.2 in
  Alcotest.(check bool) "different seed different graph" false (Graph.equal a c)

let test_erdos_renyi_edge_count () =
  let g = RG.erdos_renyi (Rng.create 3) ~n:50 ~p:0.3 in
  let expected = 0.3 *. float_of_int (50 * 49 / 2) in
  let got = float_of_int (Graph.num_edges g) in
  Alcotest.(check bool) "edge count near expectation" true
    (Float.abs (got -. expected) < 0.25 *. expected)

let test_erdos_renyi_validation () =
  Alcotest.check_raises "bad p" (Invalid_argument "Random_graphs.erdos_renyi: p outside [0,1]")
    (fun () -> ignore (RG.erdos_renyi (Rng.create 1) ~n:5 ~p:1.5))

let test_connected_erdos_renyi () =
  (* Sparse enough that G(n,p) is almost surely disconnected. *)
  let g = RG.connected_erdos_renyi (Rng.create 5) ~n:60 ~p:0.01 in
  Alcotest.(check bool) "patched connected" true (Graph.is_connected g)

let test_barabasi_albert_basic () =
  let g = RG.barabasi_albert (Rng.create 11) ~n:100 ~m:2 in
  Alcotest.(check int) "nodes" 100 (Graph.num_nodes g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* each of the n - m new nodes adds exactly m edges; the seed clique has
     m(m-1)/2 *)
  Alcotest.(check int) "edge count" ((100 - 2) * 2 + 1) (Graph.num_edges g)

let test_barabasi_albert_long_tail () =
  let g = RG.barabasi_albert (Rng.create 13) ~n:200 ~m:2 in
  (* Preferential attachment produces hubs: max degree far above the mean. *)
  let avg = Graph.average_degree g in
  let hub = float_of_int (Graph.max_degree g) in
  Alcotest.(check bool) "hub >> average" true (hub > 3. *. avg)

let test_barabasi_albert_determinism () =
  let a = RG.barabasi_albert (Rng.create 17) ~n:50 ~m:3 in
  let b = RG.barabasi_albert (Rng.create 17) ~n:50 ~m:3 in
  Alcotest.(check bool) "deterministic" true (Graph.equal a b)

let test_barabasi_albert_validation () =
  Alcotest.check_raises "m too large"
    (Invalid_argument "Random_graphs.barabasi_albert: need 1 <= m < n") (fun () ->
      ignore (RG.barabasi_albert (Rng.create 1) ~n:3 ~m:3))

let test_barabasi_albert_m1_is_tree () =
  let g = RG.barabasi_albert (Rng.create 19) ~n:40 ~m:1 in
  Alcotest.(check int) "tree edge count" 39 (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_random_spanning_connected () =
  let g = RG.random_spanning_connected (Rng.create 23) ~n:30 ~extra_edges:10 in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "edges" (29 + 10) (Graph.num_edges g)

let test_random_spanning_no_extra () =
  let g = RG.random_spanning_connected (Rng.create 29) ~n:10 ~extra_edges:0 in
  Alcotest.(check int) "tree" 9 (Graph.num_edges g)

(* MD5 of [Marshal.to_string g []], sharing on, as [Journal.job_key]
   marshals a materialized graph: a job key, and with it every journal
   entry, stays valid only while these bytes do. Drawn as
   [Scenario.build_graph] draws them; [attached] is the graph after
   [Runner]'s origin stub, [(0, n)] on a new node [n]. *)
let ba_pins =
  [
    (300, 1, 1, "373b951749b239779004659f521479ad", "5d7f90d6abc27bc94e954ed0e73cc511");
    (300, 1, 42, "5cbb42f3346357241c9bbebc5b773b84", "0de44be7f6628a3b323611d6fb5db563");
    (300, 2, 1, "e13fb52a654cf14062bf48baeb290c48", "0d1fe1fb5c4598605e4804c13a2a8321");
    (300, 2, 42, "885522819bb4a6445e5ab4debc2f248e", "a7b2569ee9db6c486361b88062f036b7");
    (300, 3, 1, "8f7e735c923bb26055e145a4fdb7892e", "4dd0f39cad9e9675daa6f15d03c626ce");
    (300, 3, 42, "4cdd003fd4013606b01534d1ee0fe474", "fde6b185eba815743e092fc3a7bb992d");
    (10_000, 1, 1, "6192a33c7cfbb6f878273ad64672fa94", "21a6b6c4a17534b88ed30062bc3ab0a2");
    (10_000, 1, 42, "0e506521ce3aa344d440239baed832d3", "643bc1904a6212a0d0180b76d819234a");
    (10_000, 2, 1, "06060dffb4ad84526ece18926a55e795", "8012ed463407c21595d8d651201dd5fa");
    (10_000, 2, 42, "ec7dc676f3d2875d436f7b8a77a8b2c3", "cb92c0286ffdd50daf03ebec5d257153");
    (10_000, 3, 1, "c2067a27a0fcf120775cd392770ae503", "f2230c5172edbbc05545c6cd04fb7978");
    (10_000, 3, 42, "47a634315375bf4a7b1cbf6f4c4af215", "34e4ddb25d088eb2dfe8c5b62ac3899d");
  ]

let marshal_md5 g = Digest.to_hex (Digest.string (Marshal.to_string g []))

let test_barabasi_albert_bytes_pinned () =
  List.iter
    (fun (n, m, seed, graph_md5, attached_md5) ->
      let name = Printf.sprintf "BA n=%d m=%d seed=%d" n m seed in
      let g = RG.barabasi_albert (Rng.split (Rng.create seed)) ~n ~m in
      Alcotest.(check string) name graph_md5 (marshal_md5 g);
      Alcotest.(check string) (name ^ " + stub") attached_md5
        (marshal_md5 (Graph.add_edges (Graph.add_nodes g 1) [ (0, n) ]));
      Alcotest.(check string) (name ^ " + stub in one rebuild") attached_md5
        (marshal_md5 (Graph.add_edges ~nodes:1 g [ (0, n) ])))
    ba_pins

(* Words allocated since the last call: minor + major - promoted. OCaml
   5.1's counters lag until a minor collection, hence the [Gc.minor]. *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_barabasi_albert_allocation () =
  let before = allocated_words () in
  let g = RG.barabasi_albert (Rng.split (Rng.create 1)) ~n:10_000 ~m:2 in
  let allocated = allocated_words () -. before in
  let graph_words = Obj.reachable_words (Obj.repr g) in
  if allocated > 4. *. float_of_int graph_words then
    Alcotest.failf "BA 10k allocated %.0f words, %.2fx the graph's %d" allocated
      (allocated /. float_of_int graph_words)
      graph_words

let prop_ba_always_connected =
  QCheck.Test.make ~name:"BA graphs always connected" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 5 60))
    (fun (seed, n) ->
      let g = RG.barabasi_albert (Rng.create seed) ~n ~m:2 in
      Graph.is_connected g)

let prop_spanning_always_connected =
  QCheck.Test.make ~name:"random spanning graphs connected" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 1 50))
    (fun (seed, n) ->
      let g = RG.random_spanning_connected (Rng.create seed) ~n ~extra_edges:3 in
      Graph.is_connected g)

let suite =
  [
    Alcotest.test_case "G(n,p) extremes" `Quick test_erdos_renyi_extremes;
    Alcotest.test_case "G(n,p) determinism" `Quick test_erdos_renyi_determinism;
    Alcotest.test_case "G(n,p) edge count" `Quick test_erdos_renyi_edge_count;
    Alcotest.test_case "G(n,p) validation" `Quick test_erdos_renyi_validation;
    Alcotest.test_case "connected G(n,p)" `Quick test_connected_erdos_renyi;
    Alcotest.test_case "BA basics" `Quick test_barabasi_albert_basic;
    Alcotest.test_case "BA long-tailed degrees" `Quick test_barabasi_albert_long_tail;
    Alcotest.test_case "BA determinism" `Quick test_barabasi_albert_determinism;
    Alcotest.test_case "BA validation" `Quick test_barabasi_albert_validation;
    Alcotest.test_case "BA m=1 is a tree" `Quick test_barabasi_albert_m1_is_tree;
    Alcotest.test_case "BA graphs marshal to pinned bytes" `Quick test_barabasi_albert_bytes_pinned;
    Alcotest.test_case "BA set-up allocates near the graph's size" `Quick
      test_barabasi_albert_allocation;
    Alcotest.test_case "spanning + extra edges" `Quick test_random_spanning_connected;
    Alcotest.test_case "spanning tree only" `Quick test_random_spanning_no_extra;
    QCheck_alcotest.to_alcotest prop_ba_always_connected;
    QCheck_alcotest.to_alcotest prop_spanning_always_connected;
  ]
