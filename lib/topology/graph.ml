type t = {
  num_nodes : int;
  adjacency : int array array; (* sorted neighbor lists *)
  adj_eids : int array array; (* adj_eids.(u).(i) = edge id of (u, adjacency.(u).(i)) *)
  edge_list : (int * int) array; (* u < v, sorted; the index is the edge id *)
}

let check_edge num_nodes u v =
  if u = v then invalid_arg (Printf.sprintf "Graph: self-loop at node %d" u);
  if u < 0 || u >= num_nodes || v < 0 || v >= num_nodes then
    invalid_arg (Printf.sprintf "Graph: edge (%d,%d) out of range [0,%d)" u v num_nodes)

(* [count.(k + 1)] holds node [k]'s count of edge endpoints; running totals
   turn [count.(k)] into the first slot of node [k]'s bucket. *)
let prefix_sums count =
  for k = 1 to Array.length count - 1 do
    count.(k) <- count.(k) + count.(k - 1)
  done

let of_edge_arrays ~num_nodes us vs =
  if num_nodes < 0 then invalid_arg "Graph.of_edges: negative node count";
  let len = Array.length us in
  if Array.length vs <> len then
    invalid_arg "Graph.of_edge_arrays: endpoint arrays differ in length";
  (* Normalize each edge to [us.(i) < vs.(i)] and count both endpoints. *)
  let lower = Array.make (num_nodes + 1) 0 and upper = Array.make (num_nodes + 1) 0 in
  for i = 0 to len - 1 do
    let u = us.(i) and v = vs.(i) in
    check_edge num_nodes u v;
    let lo = if u < v then u else v and hi = if u < v then v else u in
    us.(i) <- lo;
    vs.(i) <- hi;
    lower.(lo + 1) <- lower.(lo + 1) + 1;
    upper.(hi + 1) <- upper.(hi + 1) + 1
  done;
  prefix_sums lower;
  prefix_sums upper;
  (* Two counting passes sort the edges by (lower, upper): group the lower
     endpoints by upper endpoint, then walk the upper endpoints in
     ascending order, dealing each edge into its lower endpoint's bucket,
     so every bucket comes out ascending. *)
  let by_upper = Array.make len 0 in
  for i = 0 to len - 1 do
    let hi = vs.(i) in
    by_upper.(upper.(hi)) <- us.(i);
    upper.(hi) <- upper.(hi) + 1
  done;
  let start = ref 0 in
  for hi = 0 to num_nodes - 1 do
    for j = !start to upper.(hi) - 1 do
      let lo = by_upper.(j) in
      let slot = lower.(lo) in
      us.(slot) <- lo;
      vs.(slot) <- hi;
      lower.(lo) <- slot + 1
    done;
    start := upper.(hi)
  done;
  (* Drop duplicates, now adjacent, in place, and count degrees. *)
  let num_edges = ref 0 in
  let degree = Array.make num_nodes 0 in
  for i = 0 to len - 1 do
    let e = !num_edges and u = us.(i) and v = vs.(i) in
    if e = 0 || u <> us.(e - 1) || v <> vs.(e - 1) then begin
      us.(e) <- u;
      vs.(e) <- v;
      degree.(u) <- degree.(u) + 1;
      degree.(v) <- degree.(v) + 1;
      num_edges := e + 1
    end
  done;
  let edge_list = Array.init !num_edges (fun eid -> (us.(eid), vs.(eid))) in
  let adjacency = Array.init num_nodes (fun i -> Array.make degree.(i) 0) in
  let adj_eids = Array.init num_nodes (fun i -> Array.make degree.(i) 0) in
  let fill = Array.make num_nodes 0 in
  (* [edge_list] is sorted, so for any node the smaller-endpoint edges
     arrive before the larger-endpoint ones and each group ascends: every
     adjacency row comes out sorted without a separate sort, and the edge-id
     row stays aligned with it. *)
  for eid = 0 to !num_edges - 1 do
    let u = us.(eid) and v = vs.(eid) in
    adjacency.(u).(fill.(u)) <- v;
    adj_eids.(u).(fill.(u)) <- eid;
    fill.(u) <- fill.(u) + 1;
    adjacency.(v).(fill.(v)) <- u;
    adj_eids.(v).(fill.(v)) <- eid;
    fill.(v) <- fill.(v) + 1
  done;
  { num_nodes; adjacency; adj_eids; edge_list }

(* Endpoint arrays of the edges in [kept], then those in [extra]. *)
let endpoint_arrays kept extra =
  let n = Array.length kept in
  let len = n + List.length extra in
  let us = Array.make len 0 and vs = Array.make len 0 in
  Array.iteri
    (fun i (u, v) ->
      us.(i) <- u;
      vs.(i) <- v)
    kept;
  List.iteri
    (fun i (u, v) ->
      us.(n + i) <- u;
      vs.(n + i) <- v)
    extra;
  (us, vs)

let of_edges ~num_nodes edges =
  let us, vs = endpoint_arrays [||] edges in
  of_edge_arrays ~num_nodes us vs

let num_nodes t = t.num_nodes
let num_edges t = Array.length t.edge_list

let check_node t u =
  if u < 0 || u >= t.num_nodes then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" u t.num_nodes)

let neighbors t u =
  check_node t u;
  t.adjacency.(u)

let degree t u =
  check_node t u;
  Array.length t.adjacency.(u)

(* Index of [v] in the sorted neighbor row of [u], or -1. *)
let neighbor_rank t u v =
  let nbrs = t.adjacency.(u) in
  let rec search lo hi =
    if lo > hi then -1
    else begin
      let mid = (lo + hi) / 2 in
      let x = nbrs.(mid) in
      if x = v then mid else if x < v then search (mid + 1) hi else search lo (mid - 1)
    end
  in
  search 0 (Array.length nbrs - 1)

let has_edge t u v =
  check_node t u;
  check_node t v;
  neighbor_rank t u v >= 0

let edge_id t u v =
  if u < 0 || u >= t.num_nodes || v < 0 || v >= t.num_nodes || u = v then None
  else begin
    match neighbor_rank t u v with
    | -1 -> None
    | rank -> Some t.adj_eids.(u).(rank)
  end

let edge_endpoints t eid =
  if eid < 0 || eid >= Array.length t.edge_list then
    invalid_arg
      (Printf.sprintf "Graph.edge_endpoints: edge id %d out of range [0,%d)" eid
         (Array.length t.edge_list))
  else t.edge_list.(eid)

let incident_edge_ids t u =
  check_node t u;
  t.adj_eids.(u)

let edges t = t.edge_list

let fold_edges t ~init ~f =
  Array.fold_left (fun acc (u, v) -> f acc u v) init t.edge_list

let add_edges ?(nodes = 0) t extra =
  if nodes < 0 then invalid_arg "Graph.add_edges: negative node count";
  let us, vs = endpoint_arrays t.edge_list extra in
  of_edge_arrays ~num_nodes:(t.num_nodes + nodes) us vs

let add_nodes t k =
  if k < 0 then invalid_arg "Graph.add_nodes: negative count";
  add_edges ~nodes:k t []

let bfs_distances t source =
  check_node t source;
  let dist = Array.make t.num_nodes (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      t.adjacency.(u)
  done;
  dist

let is_connected t =
  if t.num_nodes <= 1 then true
  else begin
    let dist = bfs_distances t 0 in
    Array.for_all (fun d -> d >= 0) dist
  end

(* Balanced edge-cut partitioner for parallel simulation. Nodes are laid
   out in BFS order (new BFS sources taken in ascending id order whenever a
   component is exhausted, so disconnected graphs work), then cut into
   [parts] contiguous chunks balanced by degree + 1 — a proxy for per-node
   event load, which scales with incident sessions. BFS order keeps chunks
   topologically coherent, so most edges stay internal. Fully deterministic:
   same graph and parts, same assignment. *)
let partition t ~parts =
  if parts < 1 then invalid_arg "Graph.partition: parts must be >= 1";
  let n = t.num_nodes in
  let part_of = Array.make n 0 in
  if parts > 1 && n > 0 then begin
    let order = Array.make n 0 in
    let seen = Array.make n false in
    let filled = ref 0 in
    let queue = Queue.create () in
    let visit u =
      if not seen.(u) then begin
        seen.(u) <- true;
        Queue.add u queue
      end
    in
    for source = 0 to n - 1 do
      visit source;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        order.(!filled) <- u;
        incr filled;
        Array.iter visit t.adjacency.(u)
      done
    done;
    let weight u = float_of_int (Array.length t.adjacency.(u) + 1) in
    let total = Array.fold_left (fun acc u -> acc +. weight u) 0. order in
    let part = ref 0 in
    let consumed = ref 0. in
    for i = 0 to n - 1 do
      let u = order.(i) in
      (* Close the current chunk once its cumulative weight reaches its
         pro-rata share, but never let the remaining nodes run short of the
         remaining partitions: each of the [parts] chunks must be
         non-empty whenever n >= parts. *)
      let boundary = float_of_int (!part + 1) *. total /. float_of_int parts in
      if
        !part < parts - 1
        && ((!consumed >= boundary && i > 0) || n - i <= parts - 1 - !part)
      then incr part;
      part_of.(u) <- !part;
      consumed := !consumed +. weight u
    done
  end;
  part_of

let cut_edges t part_of =
  if Array.length part_of <> t.num_nodes then
    invalid_arg "Graph.cut_edges: assignment length mismatch";
  fold_edges t ~init:0 ~f:(fun acc u v ->
      if part_of.(u) <> part_of.(v) then acc + 1 else acc)

let shortest_path t source dest =
  check_node t source;
  check_node t dest;
  if source = dest then Some [ source ]
  else begin
    let parent = Array.make t.num_nodes (-1) in
    let seen = Array.make t.num_nodes false in
    let queue = Queue.create () in
    seen.(source) <- true;
    Queue.add source queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.take queue in
      Array.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            parent.(v) <- u;
            if v = dest then found := true else Queue.add v queue
          end)
        t.adjacency.(u)
    done;
    if not !found then None
    else begin
      let rec walk v acc = if v = source then source :: acc else walk parent.(v) (v :: acc) in
      Some (walk dest [])
    end
  end

let degree_histogram t =
  let table = Hashtbl.create 16 in
  for u = 0 to t.num_nodes - 1 do
    let d = Array.length t.adjacency.(u) in
    let prev = match Hashtbl.find_opt table d with Some c -> c | None -> 0 in
    Hashtbl.replace table d (prev + 1)
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let max_degree t =
  Array.fold_left (fun acc nbrs -> max acc (Array.length nbrs)) 0 t.adjacency

let average_degree t =
  if t.num_nodes = 0 then 0.
  else 2. *. float_of_int (num_edges t) /. float_of_int t.num_nodes

let pp ppf t =
  Format.fprintf ppf "graph<%d nodes, %d edges, max degree %d>" t.num_nodes (num_edges t)
    (max_degree t)

let equal a b =
  a.num_nodes = b.num_nodes && a.edge_list = b.edge_list
