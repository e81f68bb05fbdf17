(** RFC 2439 reuse-index arrays.

    Real implementations avoid computing logarithms per update: they
    quantise time into ticks, precompute an array mapping a penalty ratio
    to the number of ticks until reuse, and hang suppressed routes on the
    corresponding reuse list. This module implements that scheme so the
    library can reproduce router-grade quantisation (and so tests can show
    the quantised delay brackets the exact one).

    The simulator's default ([Exact]) reuse times are exact; this is the
    faithful deployment-style alternative, which a router's [Tick]-mode
    reuse wheel consults. An index is a pure function of its parameters
    and tick, so one index serves every router that damps with them. *)

type t

val create : ?tick:float -> ?array_size:int -> Params.t -> t
(** Default tick 15 s (a common implementation choice) and 1024 entries.
    The array covers penalties from the reuse threshold up to
    {!Params.max_penalty}. Raises [Invalid_argument] for a non-positive
    tick, an array of fewer than 2 entries, or invalid parameters. *)

val tick : t -> float
val array_size : t -> int

val index_of : t -> penalty:float -> int
(** Reuse-array slot for a penalty: 0 when the penalty is already at or
    below the reuse threshold, otherwise the number of ticks after which
    the route is eligible for reuse. Penalties beyond the last table entry
    fall back to the exact closed-form tick count (they are {e not} clamped
    to the array, which would under-estimate the delay and release the
    route early). *)

val delay_of : t -> penalty:float -> float
(** Quantised delay until reuse: [index_of * tick]. Always >= the exact
    {!Params.reuse_delay}, and < it plus one tick. *)

val ticks_to_reuse : t -> penalty:float -> int
(** Alias of {!index_of} with clearer intent. *)
