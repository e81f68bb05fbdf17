(** Undirected simple graphs over nodes [0 .. num_nodes - 1].

    Immutable once constructed. This is the substrate for all simulation
    topologies: meshes, Internet-derived graphs, and the small hand-built
    examples from the paper's figures. *)

type t

val of_edge_arrays : num_nodes:int -> int array -> int array -> t
(** [of_edge_arrays ~num_nodes us vs] builds the graph whose edges are
    [(us.(i), vs.(i))]. Self-loops and out-of-range endpoints raise
    [Invalid_argument] for the first such edge in input order; duplicate
    edges (in either orientation) are collapsed. It takes ownership of
    [us] and [vs]: it sorts them in place, so the caller must not read
    them afterwards. O(num_nodes + edges): two counting passes over node
    ids sort the edges, with no comparison sort and no list. *)

val of_edges : num_nodes:int -> (int * int) list -> t
(** {!of_edge_arrays} over a list of edges. *)

val num_nodes : t -> int
val num_edges : t -> int

val has_edge : t -> int -> int -> bool
(** Symmetric. O(log degree). *)

(** {2 Stable dense edge ids}

    Every undirected edge has an id in [0 .. num_edges - 1]: its index in
    the sorted {!edges} array. Ids are stable for a given edge set — the
    same graph always assigns the same ids — which lets per-link state live
    in flat arrays instead of [(int * int)]-keyed hashtables. *)

val edge_id : t -> int -> int -> int option
(** Symmetric. [None] when the nodes are not adjacent (including
    out-of-range or equal nodes). O(log degree). *)

val edge_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v] of an edge id. Raises
    [Invalid_argument] on an out-of-range id. *)

val incident_edge_ids : t -> int -> int array
(** Edge ids aligned with {!neighbors}: [incident_edge_ids g u].(i) is the
    id of the edge to [neighbors g u].(i). Shared — do not mutate. *)

val neighbors : t -> int -> int array
(** Sorted ascending. The returned array is shared — do not mutate. *)

val degree : t -> int -> int

val edges : t -> (int * int) array
(** Each undirected edge once, as [(u, v)] with [u < v], sorted. Shared —
    do not mutate. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val add_edges : ?nodes:int -> t -> (int * int) list -> t
(** Graph with additional edges, built in one pass. [nodes] (default 0)
    isolated nodes are appended first, so the new edges may name them. *)

val add_nodes : t -> int -> t
(** [add_nodes g k] has [k] extra isolated nodes appended. *)

val is_connected : t -> bool
(** True for the empty and one-node graph. *)

(** {2 Partitioning}

    Support for partitioned (conservative parallel) simulation: split the
    node set into balanced chunks, minimising — heuristically — the edges
    that cross chunks. *)

val partition : t -> parts:int -> int array
(** [partition g ~parts] assigns every node a partition in
    [0 .. parts - 1]: nodes are laid out in BFS order (sources in
    ascending id order, so disconnected graphs work) and cut into
    contiguous chunks balanced by [degree + 1] — a proxy for per-node
    event load. Deterministic for a given graph and [parts]. Every
    partition is non-empty when [parts <= num_nodes]; with [parts = 1]
    every node is in partition 0. Raises [Invalid_argument] when
    [parts < 1]. *)

val cut_edges : t -> int array -> int
(** Number of edges whose endpoints lie in different partitions of the
    given assignment. Raises [Invalid_argument] when the array length is
    not [num_nodes]. *)

val bfs_distances : t -> int -> int array
(** Hop counts from a source; [-1] marks unreachable nodes. *)

val shortest_path : t -> int -> int -> int list option
(** Some node list from source to destination inclusive, or [None]. *)

val degree_histogram : t -> (int * int) list
(** [(degree, node_count)] pairs sorted by degree. *)

val max_degree : t -> int
val average_degree : t -> float

val pp : Format.formatter -> t -> unit
(** Summary, not full edge list. *)

val equal : t -> t -> bool
(** Same node count and edge set. *)
