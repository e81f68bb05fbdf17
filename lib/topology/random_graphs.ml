module Rng = Rfd_engine.Rng

let erdos_renyi rng ~n ~p =
  if n < 0 then invalid_arg "Random_graphs.erdos_renyi: negative n";
  if p < 0. || p > 1. then invalid_arg "Random_graphs.erdos_renyi: p outside [0,1]";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng 1.0 < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~num_nodes:n !edges

let barabasi_albert rng ~n ~m =
  if m < 1 || m >= n then invalid_arg "Random_graphs.barabasi_albert: need 1 <= m < n";
  let num_edges = (m * (m - 1) / 2) + (m * (n - m)) in
  let us = Array.make num_edges 0 and vs = Array.make num_edges 0 in
  let edges = ref 0 in
  let add u v =
    us.(!edges) <- u;
    vs.(!edges) <- v;
    incr edges
  in
  (* [buf.(0 .. len-1)] lists one entry per edge endpoint, so uniform
     sampling from it is degree-proportional sampling; it is allocated at
     its final size, so each growth step is an O(m) append. The seed is an
     m-node clique whose edges enter the buffer in creation order, or the
     single entry [0] when m = 1. *)
  let buf = Array.make ((2 * num_edges) + 1) 0 in
  let len = ref 0 in
  let push entry =
    buf.(!len) <- entry;
    incr len
  in
  for u = 0 to m - 1 do
    for v = u + 1 to m - 1 do
      add u v;
      push u;
      push v
    done
  done;
  if m = 1 then push 0;
  (* The order in which a node's picks enter the buffer steers every later
     draw, so it is fixed by the picks alone, never by OCAMLRUNPARAM: by
     descending bucket [Hashtbl.hash pick land (buckets - 1)], and in pick
     order within a bucket. That is the order an unrandomized
     [Hashtbl.create m] of picks used to iterate, reversed, so the graphs
     (and the job keys that marshal them) stay as they were. *)
  let buckets =
    let rec above b = if b >= m then b else above (2 * b) in
    above 16
  in
  let rank pick = buckets - 1 - (Hashtbl.hash pick land (buckets - 1)) in
  (* [picks.(0 .. chosen-1)] are [node]'s picks so far, and
     [mark.(x) = node] once [x] is among them. *)
  let mark = Array.make n (-1) and picks = Array.make m 0 and chosen = ref 0 in
  let choose node pick =
    if pick <> node && mark.(pick) <> node then begin
      mark.(pick) <- node;
      picks.(!chosen) <- pick;
      incr chosen
    end
  in
  let count = Array.make (buckets + 1) 0 in
  for node = m to n - 1 do
    chosen := 0;
    let attempts = ref 0 in
    while !chosen < m && !attempts < 10_000 do
      incr attempts;
      choose node buf.(Rng.int rng !len)
    done;
    (* Extremely unlikely fallback: fill deterministically. *)
    let next = ref 0 in
    while !chosen < m do
      choose node !next;
      incr next
    done;
    (* A stable counting sort by rank deals the picks into the buffer. *)
    Array.fill count 0 (buckets + 1) 0;
    for i = 0 to m - 1 do
      let k = rank picks.(i) + 1 in
      count.(k) <- count.(k) + 1
    done;
    for k = 1 to buckets do
      count.(k) <- count.(k) + count.(k - 1)
    done;
    for i = 0 to m - 1 do
      let pick = picks.(i) in
      let k = rank pick in
      let slot = !len + (2 * count.(k)) in
      count.(k) <- count.(k) + 1;
      buf.(slot) <- node;
      buf.(slot + 1) <- pick;
      add node pick
    done;
    len := !len + (2 * m)
  done;
  Graph.of_edge_arrays ~num_nodes:n us vs

let components g =
  let n = Graph.num_nodes g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for seed = 0 to n - 1 do
    if comp.(seed) < 0 then begin
      let c = !count in
      incr count;
      let queue = Queue.create () in
      comp.(seed) <- c;
      Queue.add seed queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        Array.iter
          (fun v ->
            if comp.(v) < 0 then begin
              comp.(v) <- c;
              Queue.add v queue
            end)
          (Graph.neighbors g u)
      done
    end
  done;
  (comp, !count)

let connected_erdos_renyi rng ~n ~p =
  let g = erdos_renyi rng ~n ~p in
  if n <= 1 then g
  else begin
    let comp, count = components g in
    if count = 1 then g
    else begin
      (* Link a representative of every non-zero component to a random node
         of component 0. *)
      let reps = Array.make count (-1) in
      Array.iteri (fun node c -> if reps.(c) < 0 then reps.(c) <- node) comp;
      let members0 =
        Array.of_list (List.filter (fun node -> comp.(node) = 0) (List.init n Fun.id))
      in
      let extra = ref [] in
      for c = 1 to count - 1 do
        extra := (reps.(c), Rng.pick rng members0) :: !extra
      done;
      Graph.add_edges g !extra
    end
  end

let random_spanning_connected rng ~n ~extra_edges =
  if n < 1 then invalid_arg "Random_graphs.random_spanning_connected: n >= 1 required";
  if extra_edges < 0 then
    invalid_arg "Random_graphs.random_spanning_connected: negative extra_edges";
  let edges = ref [] in
  for node = 1 to n - 1 do
    edges := (node, Rng.int rng node) :: !edges
  done;
  let g = Graph.of_edges ~num_nodes:n !edges in
  let missing = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.has_edge g u v) then missing := (u, v) :: !missing
    done
  done;
  let missing = Array.of_list !missing in
  Rng.shuffle rng missing;
  let take = min extra_edges (Array.length missing) in
  let extra = Array.to_list (Array.sub missing 0 take) in
  Graph.add_edges g extra
