let require cond msg = if not cond then invalid_arg msg

let line n =
  require (n >= 1) "Builders.line: n >= 1 required";
  Graph.of_edge_arrays ~num_nodes:n (Array.init (n - 1) Fun.id) (Array.init (n - 1) succ)

let ring n =
  require (n >= 3) "Builders.ring: n >= 3 required";
  Graph.of_edge_arrays ~num_nodes:n (Array.init n Fun.id) (Array.init n (fun i -> (i + 1) mod n))

let star n =
  require (n >= 1) "Builders.star: n >= 1 required";
  Graph.of_edge_arrays ~num_nodes:n (Array.make (n - 1) 0) (Array.init (n - 1) succ)

(* The graph on [num_nodes] nodes whose [num_edges] edges [fill] passes,
   one [add u v] call each. *)
let build ~num_nodes ~num_edges fill =
  let us = Array.make num_edges 0 and vs = Array.make num_edges 0 in
  let next = ref 0 in
  fill (fun u v ->
      us.(!next) <- u;
      vs.(!next) <- v;
      incr next);
  Graph.of_edge_arrays ~num_nodes us vs

let clique n =
  require (n >= 1) "Builders.clique: n >= 1 required";
  build ~num_nodes:n ~num_edges:(n * (n - 1) / 2) (fun add ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          add u v
        done
      done)

let node_of_grid_coord ~cols ~row ~col = (row * cols) + col

let grid_graph ~rows ~cols ~wrap =
  let num_nodes = rows * cols in
  let num_edges = if wrap then 2 * num_nodes else (rows * (cols - 1)) + ((rows - 1) * cols) in
  build ~num_nodes ~num_edges (fun add ->
      let id r c = node_of_grid_coord ~cols ~row:r ~col:c in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if c + 1 < cols then add (id r c) (id r (c + 1))
          else if wrap then add (id r c) (id r 0);
          if r + 1 < rows then add (id r c) (id (r + 1) c)
          else if wrap then add (id r c) (id 0 c)
        done
      done)

let grid ~rows ~cols =
  require (rows >= 1 && cols >= 1) "Builders.grid: positive dimensions required";
  grid_graph ~rows ~cols ~wrap:false

let mesh ~rows ~cols =
  require (rows >= 3 && cols >= 3) "Builders.mesh: rows and cols >= 3 required";
  grid_graph ~rows ~cols ~wrap:true

let binary_tree ~depth =
  require (depth >= 1) "Builders.binary_tree: depth >= 1 required";
  let n = (1 lsl depth) - 1 in
  (* Child [i + 1]'s parent is [i / 2]. *)
  Graph.of_edge_arrays ~num_nodes:n (Array.init (n - 1) (fun i -> i / 2)) (Array.init (n - 1) succ)
