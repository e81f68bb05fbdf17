(** A route: a destination prefix plus path attributes.

    The next hop is implicit — a route stored in a RIB-In belongs to the
    peer it was received from. Attribute equality ({!equal}) is what the
    damping code uses to distinguish duplicate announcements from
    attribute changes.

    Like {!As_path}, routes are interned per network: routers build
    advertisements through {!prepend_interned} / {!make_interned} on the
    network's shared {!table}, so the same route stored in many RIB-In /
    RIB-Out / Loc-RIB tables is one shared record and {!equal} hits its
    O(1) physical-equality fast path. *)

type t = { prefix : Prefix.t; path : As_path.t }

val make : prefix:Prefix.t -> path:As_path.t -> t
val prefix : t -> Prefix.t
val path : t -> As_path.t
val path_length : t -> int

val prepend : int -> t -> t
(** Prepend an AS to the path, keeping the prefix. Plain (uninterned)
    construction; routers use {!prepend_interned}. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** {1 Interning} *)

type table
(** A per-network intern table for routes and their paths: one
    open-addressing array of routes (linear probing, a power-of-two
    capacity at most half full) keyed by (prefix, path), beside an
    {!As_path.table}. The path is interned in the same table first, so the
    key compares it physically, and a lookup hit allocates nothing. *)

val create_table : ?size:int -> unit -> table
val path_table : table -> As_path.table

val make_interned : table -> prefix:Prefix.t -> path:As_path.t -> t
(** The table's shared record for this (prefix, path); the path is interned
    too, whatever table (if any) it came from. *)

val prepend_interned : table -> int -> t -> t
(** {!prepend} through the table: the extended path and the resulting route
    are both interned. *)

val table_size : table -> int
(** Number of distinct routes interned so far. *)
