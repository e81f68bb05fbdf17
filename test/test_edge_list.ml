(* Tests for the edge-list text format. *)

module Graph = Rfd_topology.Graph
module Relations = Rfd_topology.Relations
module Edge_list = Rfd_topology.Edge_list

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let err = function
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> e

let test_parse_plain () =
  let g = ok (Edge_list.parse_graph "0 1\n1 2\n") in
  Alcotest.(check int) "nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "edges" 2 (Graph.num_edges g)

let test_parse_comments_blanks () =
  let g = ok (Edge_list.parse_graph "# a comment\n\n0 1\n\n# another\n2 0\n") in
  Alcotest.(check int) "edges" 2 (Graph.num_edges g)

let test_parse_header () =
  let g = ok (Edge_list.parse_graph "# nodes: 10\n0 1\n") in
  Alcotest.(check int) "header raises node count" 10 (Graph.num_nodes g)

let test_parse_labels () =
  let r = ok (Edge_list.parse "0 1 c2p\n1 2 p2c\n0 2 p2p\n") in
  Alcotest.(check bool) "0 customer of 1" true
    (Relations.side r ~me:1 ~neighbour:0 = Relations.Customer);
  Alcotest.(check bool) "2 customer of 1" true
    (Relations.side r ~me:1 ~neighbour:2 = Relations.Customer);
  Alcotest.(check bool) "0-2 peer" true (Relations.side r ~me:0 ~neighbour:2 = Relations.Peer)

let test_parse_tabs () =
  let g = ok (Edge_list.parse_graph "0\t1\n") in
  Alcotest.(check int) "tab separated" 1 (Graph.num_edges g)

let test_parse_errors () =
  let e = err (Edge_list.parse_graph "0 x\n") in
  Alcotest.(check bool) "line number reported" true (String.length e > 0 && e.[5] = '1');
  ignore (err (Edge_list.parse_graph "0\n"));
  ignore (err (Edge_list.parse "0 1 weird\n"));
  ignore (err (Edge_list.parse_graph "# nodes: -3\n0 1\n"));
  ignore (err (Edge_list.parse_graph "3 3\n"))

let test_round_trip () =
  let doc = "# nodes: 4\n0 1 c2p\n0 2 p2p\n1 3 p2c\n" in
  let r = ok (Edge_list.parse doc) in
  let printed = Edge_list.print r in
  let r2 = ok (Edge_list.parse printed) in
  Alcotest.(check bool) "graphs equal" true
    (Graph.equal (Relations.graph r) (Relations.graph r2));
  Alcotest.(check string) "stable print" printed (Edge_list.print r2)

let test_print_graph () =
  let g = Graph.of_edges ~num_nodes:3 [ (2, 0) ] in
  Alcotest.(check string) "print" "# nodes: 3\n0 2\n" (Edge_list.print_graph g)

let test_empty_document () =
  let g = ok (Edge_list.parse_graph "") in
  Alcotest.(check int) "no nodes" 0 (Graph.num_nodes g)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_node_cap () =
  (* Both shapes are refused before any graph is built — the first would
     not fit in memory — with the offending line and the cap. *)
  let cap = string_of_int Edge_list.max_nodes in
  let e = err (Edge_list.parse_graph "# nodes: 1000000000000\n0 1\n") in
  Alcotest.(check bool) ("declared count refused: " ^ e) true
    (contains ~sub:"line 1" e && contains ~sub:cap e);
  let e = err (Edge_list.parse "0 1\n1 30000000\n") in
  Alcotest.(check bool) ("implied count refused: " ^ e) true
    (contains ~sub:"line 2" e && contains ~sub:cap e);
  let g =
    ok
      (Edge_list.parse_graph
         (Printf.sprintf "# nodes: %d\n0 %d\n" Edge_list.max_nodes (Edge_list.max_nodes - 1)))
  in
  Alcotest.(check int) "the cap itself is accepted" Edge_list.max_nodes (Graph.num_nodes g)

(* Documents built from lines that are mostly well formed, with node ids
   and headers that are huge, negative, at the cap or overflowing. *)
let gen_document =
  let open QCheck.Gen in
  let number =
    frequency
      [
        (8, map string_of_int (int_range 0 12));
        (1, map string_of_int (int_range (-5) (-1)));
        (1, oneofl [ "99999"; "100000"; "100001"; "30000000"; "1000000000000" ]);
        (1, oneofl [ "4611686018427387904"; "99999999999999999999"; "-0"; "0x1f"; "1_0"; "x" ]);
      ]
  in
  let line =
    frequency
      [
        (6, map2 (fun u v -> u ^ " " ^ v) number number);
        ( 2,
          map3
            (fun u v l -> u ^ "\t" ^ v ^ " " ^ l)
            number number
            (oneofl [ "c2p"; "p2c"; "p2p"; "p2x" ]) );
        (1, map (fun n -> "# nodes: " ^ n) number);
        (1, oneofl [ ""; "# comment"; "0"; "1 2 3 4"; "  \t " ]);
      ]
  in
  map (String.concat "\n") (list_size (int_range 0 8) line)

let prop_total_and_reprintable =
  QCheck.Test.make ~count:500 ~name:"never raises; accepted documents reprint"
    (QCheck.make ~print:Fun.id gen_document)
    (fun doc ->
      let reprints g =
        match Edge_list.parse_graph (Edge_list.print_graph g) with
        | Ok g' -> Graph.equal g g'
        | Error _ -> false
      in
      (match Edge_list.parse_graph doc with Ok g -> reprints g | Error _ -> true)
      &&
      match Edge_list.parse doc with Ok r -> reprints (Relations.graph r) | Error _ -> true)

let suite =
  [
    Alcotest.test_case "parse plain edges" `Quick test_parse_plain;
    Alcotest.test_case "comments and blanks" `Quick test_parse_comments_blanks;
    Alcotest.test_case "nodes header" `Quick test_parse_header;
    Alcotest.test_case "relationship labels" `Quick test_parse_labels;
    Alcotest.test_case "tab separators" `Quick test_parse_tabs;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "print graph" `Quick test_print_graph;
    Alcotest.test_case "empty document" `Quick test_empty_document;
    Alcotest.test_case "node cap" `Quick test_node_cap;
    QCheck_alcotest.to_alcotest prop_total_and_reprintable;
  ]
