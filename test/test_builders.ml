(* Tests for deterministic topology constructors. *)

module Graph = Rfd_topology.Graph
module Builders = Rfd_topology.Builders

let test_line () =
  let g = Builders.line 4 in
  Alcotest.(check int) "edges" 3 (Graph.num_edges g);
  Alcotest.(check int) "end degree" 1 (Graph.degree g 0);
  Alcotest.(check int) "middle degree" 2 (Graph.degree g 1);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  let single = Builders.line 1 in
  Alcotest.(check int) "single node line" 0 (Graph.num_edges single)

let test_ring () =
  let g = Builders.ring 5 in
  Alcotest.(check int) "edges" 5 (Graph.num_edges g);
  for u = 0 to 4 do
    Alcotest.(check int) "degree 2 everywhere" 2 (Graph.degree g u)
  done;
  Alcotest.check_raises "too small" (Invalid_argument "Builders.ring: n >= 3 required")
    (fun () -> ignore (Builders.ring 2))

let test_star () =
  let g = Builders.star 6 in
  Alcotest.(check int) "hub degree" 5 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 3);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_clique () =
  let g = Builders.clique 5 in
  Alcotest.(check int) "edges n(n-1)/2" 10 (Graph.num_edges g);
  for u = 0 to 4 do
    Alcotest.(check int) "degree n-1" 4 (Graph.degree g u)
  done

let test_grid () =
  let g = Builders.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "nodes" 12 (Graph.num_nodes g);
  (* 3*(4-1) horizontal + (3-1)*4 vertical *)
  Alcotest.(check int) "edges" 17 (Graph.num_edges g);
  Alcotest.(check int) "corner degree" 2 (Graph.degree g 0);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_mesh_regularity () =
  let g = Builders.mesh ~rows:4 ~cols:5 in
  Alcotest.(check int) "nodes" 20 (Graph.num_nodes g);
  (* a torus is 4-regular: every node topologically equal *)
  for u = 0 to 19 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g u)
  done;
  Alcotest.(check int) "edges 2n" 40 (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_mesh_wraparound () =
  let g = Builders.mesh ~rows:3 ~cols:3 in
  (* node (0,0)=0 connects to (0,2)=2 and (2,0)=6 via wraparound *)
  Alcotest.(check bool) "row wrap" true (Graph.has_edge g 0 2);
  Alcotest.(check bool) "col wrap" true (Graph.has_edge g 0 6)

let test_mesh_minimum_size () =
  Alcotest.check_raises "2x3 rejected"
    (Invalid_argument "Builders.mesh: rows and cols >= 3 required") (fun () ->
      ignore (Builders.mesh ~rows:2 ~cols:3))

let test_binary_tree () =
  let g = Builders.binary_tree ~depth:3 in
  Alcotest.(check int) "nodes 2^d - 1" 7 (Graph.num_nodes g);
  Alcotest.(check int) "edges n-1" 6 (Graph.num_edges g);
  Alcotest.(check int) "root degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 6);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_node_of_grid_coord () =
  Alcotest.(check int) "index math" 7 (Builders.node_of_grid_coord ~cols:5 ~row:1 ~col:2)

let paper_mesh_is_100_nodes () =
  let g = Builders.mesh ~rows:10 ~cols:10 in
  Alcotest.(check int) "100 nodes" 100 (Graph.num_nodes g);
  Alcotest.(check int) "200 links" 200 (Graph.num_edges g)

(* MD5 of [Marshal.to_string g []], as [Journal.job_key] marshals a
   materialized mesh: job keys stay valid only while these bytes do. *)
let test_mesh_bytes_pinned () =
  let md5 g = Digest.to_hex (Digest.string (Marshal.to_string g [])) in
  Alcotest.(check string) "mesh 3x3" "752b4e8f77890fe81d26908049efa268"
    (md5 (Builders.mesh ~rows:3 ~cols:3));
  Alcotest.(check string) "mesh 10x10" "1e38fe7863fdea433218c1f88634b61d"
    (md5 (Builders.mesh ~rows:10 ~cols:10))

let suite =
  [
    Alcotest.test_case "line" `Quick test_line;
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "clique" `Quick test_clique;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "mesh is a regular torus" `Quick test_mesh_regularity;
    Alcotest.test_case "mesh wraparound edges" `Quick test_mesh_wraparound;
    Alcotest.test_case "mesh minimum size" `Quick test_mesh_minimum_size;
    Alcotest.test_case "binary tree" `Quick test_binary_tree;
    Alcotest.test_case "grid coordinate indexing" `Quick test_node_of_grid_coord;
    Alcotest.test_case "paper mesh has 100 nodes / 200 links" `Quick paper_mesh_is_100_nodes;
    Alcotest.test_case "meshes marshal to pinned bytes" `Quick test_mesh_bytes_pinned;
  ]
