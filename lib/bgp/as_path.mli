(** AS paths.

    A sequence of AS numbers, most recently prepended first (the neighbour
    that sent the route is the head; the originator is the last element).
    Each simulated router is its own AS, so AS numbers are node ids.

    A non-empty path is one node: its head ASN, the path it extends (its
    tail), and a precomputed length, structural hash and intern id. There
    is no separate list: a path shares its whole spine with its tail.

    Paths are hash-consed when built through a {!table} (one table per
    {!Network}): a node is keyed by (tail, head ASN) with the tail compared
    physically, so structurally equal paths become one shared value,
    {!equal} decides in O(1) via physical equality on the hot path, {!hash}
    is a precomputed O(1) read, and RIB entries across peers and routers
    share storage instead of duplicating path spines. {!compare} keeps the
    seed-era lexicographic list order bit-for-bit (with an O(1) equal-case
    short-circuit), so decision-process tie-breaks are unchanged. *)

type t

val empty : t
(** The path of a locally originated route before any prepending. *)

val of_list : int list -> t
val to_list : t -> int list

val prepend : int -> t -> t
(** [prepend asn p] — done by each router as it propagates a route. Plain
    (uninterned) construction; routers use {!prepend_interned}. *)

val length : t -> int
(** O(1). *)

val contains : t -> int -> bool
(** Loop detection. *)

val origin : t -> int option
(** The originating AS (last element), if the path is non-empty. *)

val equal : t -> t -> bool
(** O(1) (physical equality) for two paths interned in the same table;
    structural fallback otherwise. *)

val compare : t -> t -> int
(** Lexicographic on the AS list, exactly as the seed representation
    ordered paths; O(1) when the arguments are physically equal. *)

val hash : t -> int
(** Precomputed structural hash: O(1), stable by construction (independent
    of the polymorphic hasher), equal for structurally equal paths
    regardless of interning. *)

val pp : Format.formatter -> t -> unit

(** {1 Interning}

    A table hash-conses every path built through it. Tables are per-network
    (never shared across simulations), so intern ids are a deterministic
    function of the run — safe to marshal into result digests.

    A table is one open-addressing array (linear probing, a power-of-two
    capacity at most half full) holding the nodes themselves; a free slot
    holds {!empty}. A lookup hit allocates nothing. *)

type table

val create_table : ?size:int -> unit -> table
(** The table holds at least [size] paths before its first resize. *)

val mem : table -> t -> bool
(** Whether [t] is the table's own value: an O(1) expected probe for the
    value itself. {!empty} is a member of every table; an uninterned path
    or one interned in another table is not. *)

val prepend_interned : table -> int -> t -> t
(** Like {!prepend}, but returns the table's unique shared value for the
    resulting path. O(1) expected when [t] is a member of the table; a tail
    interned elsewhere (another partition's table, or none) is interned
    here first, after a {!mem} probe. *)

val intern : table -> t -> t
(** The table's shared value for [t], interning every suffix so future
    prepends land on shared spines. O(1) expected for a member, which is
    returned as is. Idempotent. *)

val intern_id : t -> int
(** This path's id in the table that interned it: 0 for {!empty}, unique
    positive ids for interned paths, [-1] for uninterned values. *)

val table_size : table -> int
(** Number of distinct non-empty paths interned so far. *)
