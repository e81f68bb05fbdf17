(** Random topology generators.

    The Barabási–Albert generator stands in for the paper's
    "Internet-derived" topologies (BGP-table AS graphs): what the paper
    relies on is the long-tailed node-degree distribution, which
    preferential attachment reproduces. All generators are deterministic
    given the RNG state. *)

val erdos_renyi : Rfd_engine.Rng.t -> n:int -> p:float -> Graph.t
(** G(n, p): each node pair is connected independently with probability
    [p]. Requires [0 <= p <= 1]. *)

val barabasi_albert : Rfd_engine.Rng.t -> n:int -> m:int -> Graph.t
(** Preferential attachment: start from an [m]-clique and attach each new
    node to [m] distinct existing nodes chosen with probability
    proportional to current degree. Requires [1 <= m < n]. The result is
    connected and has a power-law degree tail. The draw order is fixed:
    the graph depends on the RNG state alone, never on hash-table
    randomization ([OCAMLRUNPARAM=R]). O(n·m) time; at m = 2 it
    allocates about 2.4 times the finished graph's words. *)

val connected_erdos_renyi : Rfd_engine.Rng.t -> n:int -> p:float -> Graph.t
(** {!erdos_renyi} with any disconnected component patched into the
    largest one by a random edge, so the result is connected. *)

val random_spanning_connected : Rfd_engine.Rng.t -> n:int -> extra_edges:int -> Graph.t
(** A random spanning tree (random attachment) plus [extra_edges]
    additional distinct random edges. Always connected; handy for tests
    that need irregular but controlled topologies. *)
