(** A route: a destination prefix plus path attributes.

    The next hop is implicit — a route received in a RIB-In belongs to the
    peer it was received from. Attribute equality ({!equal}) is what the
    damping code uses to distinguish duplicate announcements from
    attribute changes.

    A route is a short-lived value: routers keep no [Route.t]. Their RIB
    columns are indexed by prefix id and hold interned {!As_path.t}s, and
    a route is built where an update enters or leaves a router (the
    update on the wire, {!Router.best} and the other inspection
    functions). Paths from one network's table compare physically, so
    {!equal} on two routes of one network costs a prefix compare and a
    pointer compare. *)

type t = { prefix : Prefix.t; path : As_path.t }

val make : prefix:Prefix.t -> path:As_path.t -> t
val prefix : t -> Prefix.t
val path : t -> As_path.t
val path_length : t -> int

val prepend : int -> t -> t
(** Prepend an AS to the path, keeping the prefix. Plain (uninterned)
    construction; routers extend interned paths with
    {!As_path.prepend_interned}. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** {1 The network's intern table}

    Routes are not interned. What a network interns is its paths, in one
    {!As_path.table}; [table] names that table for callers that read its
    size through this module. *)

type table = As_path.table
(** A network's path intern table ({!Network.route_table}). *)

val path_table : table -> As_path.table
(** The table itself. *)

val table_size : table -> int
(** Routes interned in the table: always 0, since no route is interned.
    Its paths are counted by {!As_path.table_size}. *)
