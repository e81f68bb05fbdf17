(* Tests for the core graph type. *)

module Graph = Rfd_topology.Graph

let triangle () = Graph.of_edges ~num_nodes:3 [ (0, 1); (1, 2); (2, 0) ]

let test_construction () =
  let g = triangle () in
  Alcotest.(check int) "nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "edges" 3 (Graph.num_edges g);
  Alcotest.(check bool) "has 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "symmetric" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no self edge" false (Graph.has_edge g 0 0);
  Alcotest.(check (array int)) "neighbors sorted" [| 1; 2 |] (Graph.neighbors g 0)

let test_duplicates_collapsed () =
  let g = Graph.of_edges ~num_nodes:2 [ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "single edge" 1 (Graph.num_edges g);
  Alcotest.(check int) "degree" 1 (Graph.degree g 0)

let test_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph: self-loop at node 1") (fun () ->
      ignore (Graph.of_edges ~num_nodes:2 [ (1, 1) ]));
  Alcotest.check_raises "out of range" (Invalid_argument "Graph: edge (0,5) out of range [0,3)")
    (fun () -> ignore (Graph.of_edges ~num_nodes:3 [ (0, 5) ]));
  let g = triangle () in
  Alcotest.check_raises "bad node" (Invalid_argument "Graph: node 7 out of range [0,3)")
    (fun () -> ignore (Graph.neighbors g 7))

let test_empty_graph () =
  let g = Graph.of_edges ~num_nodes:0 [] in
  Alcotest.(check int) "no nodes" 0 (Graph.num_nodes g);
  Alcotest.(check bool) "connected (vacuous)" true (Graph.is_connected g)

let test_isolated_nodes () =
  let g = Graph.of_edges ~num_nodes:4 [ (0, 1) ] in
  Alcotest.(check int) "degree of isolated" 0 (Graph.degree g 3);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g)

let test_edges_canonical () =
  let g = Graph.of_edges ~num_nodes:4 [ (3, 1); (2, 0) ] in
  Alcotest.(check (array (pair int int))) "canonical sorted" [| (0, 2); (1, 3) |] (Graph.edges g)

let test_bfs () =
  let g = Rfd_topology.Builders.line 5 in
  let dist = Graph.bfs_distances g 0 in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4 |] dist

let test_bfs_unreachable () =
  let g = Graph.of_edges ~num_nodes:3 [ (0, 1) ] in
  let dist = Graph.bfs_distances g 0 in
  Alcotest.(check int) "unreachable is -1" (-1) dist.(2)

let test_shortest_path () =
  let g = Rfd_topology.Builders.ring 6 in
  (match Graph.shortest_path g 0 2 with
  | Some path -> Alcotest.(check (list int)) "around ring" [ 0; 1; 2 ] path
  | None -> Alcotest.fail "path expected");
  (match Graph.shortest_path g 0 0 with
  | Some path -> Alcotest.(check (list int)) "trivial" [ 0 ] path
  | None -> Alcotest.fail "path expected");
  let g2 = Graph.of_edges ~num_nodes:3 [ (0, 1) ] in
  Alcotest.(check bool) "no path" true (Graph.shortest_path g2 0 2 = None)

let test_add_nodes_edges () =
  let g = triangle () in
  let g = Graph.add_nodes g 2 in
  Alcotest.(check int) "grown" 5 (Graph.num_nodes g);
  Alcotest.(check int) "edges kept" 3 (Graph.num_edges g);
  let g = Graph.add_edges g [ (3, 4) ] in
  Alcotest.(check bool) "new edge" true (Graph.has_edge g 3 4)

let test_degree_histogram () =
  let g = Rfd_topology.Builders.star 5 in
  Alcotest.(check (list (pair int int))) "star histogram" [ (1, 4); (4, 1) ]
    (Graph.degree_histogram g);
  Alcotest.(check int) "max degree" 4 (Graph.max_degree g);
  Alcotest.(check (float 1e-9)) "average degree" 1.6 (Graph.average_degree g)

let test_equal () =
  Alcotest.(check bool) "equal" true (Graph.equal (triangle ()) (triangle ()));
  let other = Graph.of_edges ~num_nodes:3 [ (0, 1) ] in
  Alcotest.(check bool) "not equal" false (Graph.equal (triangle ()) other)

let test_fold_edges () =
  let g = triangle () in
  let count = Graph.fold_edges g ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "fold visits each edge once" 3 count

let test_edge_ids () =
  let g = Graph.of_edges ~num_nodes:4 [ (3, 1); (2, 0); (0, 1) ] in
  (* Sorted canonical edge list: (0,1)=0, (0,2)=1, (1,3)=2. *)
  Alcotest.(check (option int)) "0-1" (Some 0) (Graph.edge_id g 0 1);
  Alcotest.(check (option int)) "symmetric" (Some 1) (Graph.edge_id g 2 0);
  Alcotest.(check (option int)) "1-3" (Some 2) (Graph.edge_id g 3 1);
  Alcotest.(check (option int)) "non-edge" None (Graph.edge_id g 2 3);
  Alcotest.(check (option int)) "self" None (Graph.edge_id g 1 1);
  Alcotest.(check (option int)) "out of range" None (Graph.edge_id g 0 9);
  Alcotest.(check (pair int int)) "endpoints round-trip" (1, 3) (Graph.edge_endpoints g 2);
  Alcotest.(check (array int)) "incident ids aligned with neighbors" [| 0; 1 |]
    (Graph.incident_edge_ids g 0);
  Alcotest.check_raises "bad edge id"
    (Invalid_argument "Graph.edge_endpoints: edge id 3 out of range [0,3)") (fun () ->
      ignore (Graph.edge_endpoints g 3))

let graph_gen =
  QCheck.Gen.(
    sized_size (1 -- 20) (fun n ->
        let* edges =
          list_size (0 -- (n * 2))
            (let* u = 0 -- (n - 1) in
             let* v = 0 -- (n - 1) in
             return (u, v))
        in
        return (n, List.filter (fun (u, v) -> u <> v) edges)))

let arbitrary_graph = QCheck.make graph_gen

let prop_edge_ids_dense =
  QCheck.Test.make ~name:"edge ids are dense, stable and aligned" ~count:200 arbitrary_graph
    (fun (n, edges) ->
      let g = Graph.of_edges ~num_nodes:n edges in
      let m = Graph.num_edges g in
      (* Ids enumerate the sorted canonical edge list; endpoints round-trip
         and both query directions agree. *)
      Array.for_all
        (fun ok -> ok)
        (Array.mapi
           (fun eid (u, v) ->
             Graph.edge_id g u v = Some eid
             && Graph.edge_id g v u = Some eid
             && Graph.edge_endpoints g eid = (u, v))
           (Graph.edges g))
      && (* incident_edge_ids is pointwise consistent with neighbors *)
      (let ok = ref true in
       for u = 0 to n - 1 do
         let nbrs = Graph.neighbors g u in
         let eids = Graph.incident_edge_ids g u in
         if Array.length nbrs <> Array.length eids then ok := false
         else
           Array.iteri
             (fun i v ->
               match Graph.edge_id g u v with
               | Some eid -> if eid <> eids.(i) || eid < 0 || eid >= m then ok := false
               | None -> ok := false)
             nbrs
       done;
       !ok))

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2 * edges" ~count:200 arbitrary_graph
    (fun (n, edges) ->
      let g = Graph.of_edges ~num_nodes:n edges in
      let sum = ref 0 in
      for u = 0 to n - 1 do
        sum := !sum + Graph.degree g u
      done;
      !sum = 2 * Graph.num_edges g)

let prop_neighbors_consistent_with_has_edge =
  QCheck.Test.make ~name:"neighbors <-> has_edge" ~count:200 arbitrary_graph
    (fun (n, edges) ->
      let g = Graph.of_edges ~num_nodes:n edges in
      let ok = ref true in
      for u = 0 to n - 1 do
        Array.iter (fun v -> if not (Graph.has_edge g u v) then ok := false) (Graph.neighbors g u)
      done;
      !ok)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances obey edge relaxation" ~count:100 arbitrary_graph
    (fun (n, edges) ->
      let g = Graph.of_edges ~num_nodes:n edges in
      if n = 0 then true
      else begin
        let dist = Graph.bfs_distances g 0 in
        Graph.fold_edges g ~init:true ~f:(fun acc u v ->
            acc
            && (dist.(u) < 0 || dist.(v) < 0 || abs (dist.(u) - dist.(v)) <= 1)
            && (dist.(u) >= 0) = (dist.(v) >= 0))
      end)

(* The list-and-sort construction [Graph.of_edges] used before edges were
   sorted by counting passes, kept as the reference. [reference] has
   [Graph.t]'s layout, so equal values marshal to equal bytes. *)
type reference = {
  num_nodes : int;
  adjacency : int array array;
  adj_eids : int array array;
  edge_list : (int * int) array;
}

let reference_of_edges ~num_nodes edges =
  let normalize (u, v) =
    if u = v then invalid_arg (Printf.sprintf "Graph: self-loop at node %d" u);
    if u < 0 || u >= num_nodes || v < 0 || v >= num_nodes then
      invalid_arg (Printf.sprintf "Graph: edge (%d,%d) out of range [0,%d)" u v num_nodes);
    if u < v then (u, v) else (v, u)
  in
  let edge_list = Array.of_list (List.sort_uniq compare (List.map normalize edges)) in
  let degree = Array.make num_nodes 0 in
  Array.iter
    (fun (u, v) ->
      degree.(u) <- degree.(u) + 1;
      degree.(v) <- degree.(v) + 1)
    edge_list;
  let adjacency = Array.init num_nodes (fun i -> Array.make degree.(i) 0) in
  let adj_eids = Array.init num_nodes (fun i -> Array.make degree.(i) 0) in
  let fill = Array.make num_nodes 0 in
  Array.iteri
    (fun eid (u, v) ->
      adjacency.(u).(fill.(u)) <- v;
      adj_eids.(u).(fill.(u)) <- eid;
      fill.(u) <- fill.(u) + 1;
      adjacency.(v).(fill.(v)) <- u;
      adj_eids.(v).(fill.(v)) <- eid;
      fill.(v) <- fill.(v) + 1)
    edge_list;
  { num_nodes; adjacency; adj_eids; edge_list }

(* Up to 50 nodes (some isolated), edges in both orientations, some
   repeated flipped, and now and then a self-loop or an out-of-range
   endpoint, all shuffled. *)
let edge_list_gen =
  QCheck.Gen.(
    let* n = 0 -- 50 in
    let* edges =
      if n < 2 then return []
      else
        list_size (0 -- (2 * n))
          (let* u = 0 -- (n - 1) in
           let* d = 1 -- (n - 1) in
           return (u, (u + d) mod n))
    in
    let* repeats =
      if edges = [] then return [] else list_size (0 -- 5) (oneofl edges >|= fun (u, v) -> (v, u))
    in
    let bad_edge =
      oneof
        ((if n > 0 then [ (0 -- (n - 1) >|= fun u -> (u, u)) ] else [])
        @ [ pair (0 -- (n + 2)) (n -- (n + 2)); pair (-3 -- -1) (0 -- (n + 2)) ])
    in
    let* bad = frequency [ (3, return []); (1, list_size (1 -- 2) bad_edge) ] in
    let* edges = shuffle_l (edges @ repeats @ bad) in
    return (n, edges))

let print_edge_list (n, edges) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))

let prop_matches_reference =
  QCheck.Test.make ~name:"of_edges marshals like the list-and-sort reference" ~count:500
    (QCheck.make ~print:print_edge_list edge_list_gen)
    (fun (num_nodes, edges) ->
      let outcome build =
        match build () with
        | bytes -> Ok bytes
        | exception Invalid_argument msg -> Error msg
      in
      outcome (fun () -> Marshal.to_string (Graph.of_edges ~num_nodes edges) [])
      = outcome (fun () -> Marshal.to_string (reference_of_edges ~num_nodes edges) []))

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "duplicate edges collapsed" `Quick test_duplicates_collapsed;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "isolated nodes" `Quick test_isolated_nodes;
    Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
    Alcotest.test_case "bfs distances" `Quick test_bfs;
    Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "add nodes and edges" `Quick test_add_nodes_edges;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    Alcotest.test_case "structural equality" `Quick test_equal;
    Alcotest.test_case "fold_edges" `Quick test_fold_edges;
    Alcotest.test_case "edge ids" `Quick test_edge_ids;
    QCheck_alcotest.to_alcotest prop_edge_ids_dense;
    QCheck_alcotest.to_alcotest prop_degree_sum;
    QCheck_alcotest.to_alcotest prop_neighbors_consistent_with_has_edge;
    QCheck_alcotest.to_alcotest prop_bfs_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
