(** Routing policies: import preference and export filtering.

    Two policies from the paper:

    - {!announce_all} — "shortest path routing policy": every best route is
      exported to every peer; all peers have equal import preference, so
      path selection degenerates to shortest AS path.
    - {!no_valley} — the valley-free commercial policy of Section 7: a
      router forwards transit only from or to its customers. Routes learned
      from customers are exported to everyone; routes learned from peers or
      providers only to customers. Import preference follows the standard
      Gao–Rexford ordering: customer > peer > provider.

    Sender-side AS-loop avoidance (never announce a route to a peer whose
    AS is already in the path) is protocol-level, applied by the router
    regardless of policy.

    Both callbacks see a candidate's AS path, not a route: a router's RIB
    columns hold interned paths, indexed by prefix id, and the built-in
    policies ignore the path.

    Both must be deterministic functions of their arguments. A router
    does not store the update it parks behind an MRAI deadline: when the
    flush fires it calls [export_allowed] again, with the same
    arguments, and sends what it answers now. *)

type t

val name : t -> string

val import_preference : t -> me:int -> from_peer:int -> path:As_path.t -> int
(** Higher wins in path selection; ties fall to AS-path length. [path] is
    the candidate's AS path as [from_peer] sent it (the route's prefix is
    the one being decided). *)

val export_allowed : t -> me:int -> learned_from:int option -> to_peer:int -> path:As_path.t -> bool
(** [learned_from = None] means the route is originated by [me]. [path] is
    the best route's path before [me] prepends itself (empty for an own
    prefix). *)

val announce_all : t

val no_valley : Rfd_topology.Relations.t -> t

val custom :
  name:string ->
  import_preference:(me:int -> from_peer:int -> path:As_path.t -> int) ->
  export_allowed:(me:int -> learned_from:int option -> to_peer:int -> path:As_path.t -> bool) ->
  t
(** Escape hatch for experiments with bespoke policies. Both callbacks
    must be deterministic functions of their arguments (see above). *)
