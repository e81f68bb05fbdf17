(** Plain-text interchange format for topologies.

    One edge per line: [u v] or, with a relationship label,
    [u v c2p] (u customer of v), [u v p2c] (u provider of v) or [u v p2p].
    Lines starting with ['#'] and blank lines are ignored. Node count is
    [1 + max node id] unless a [# nodes: N] header raises it. *)

val max_nodes : int
(** 100_000, the largest node count a document may declare or imply: a
    larger header or node id is a parse error, reported before anything
    the size of the graph is allocated. The daemon's topology admission
    cap is this constant. *)

val parse : string -> (Relations.t, string) result
(** Parse a document. Errors carry a 1-based line number and reason.
    Never raises. *)

val parse_graph : string -> (Graph.t, string) result
(** Parse ignoring relationship labels. *)

val print : Relations.t -> string
(** Render with a [# nodes:] header; inverse of {!parse} up to formatting. *)

val print_graph : Graph.t -> string
