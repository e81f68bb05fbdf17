(** Deterministic pseudo-random number generation.

    A small SplitMix64 generator. Every source of randomness in the project
    flows from an explicit [Rng.t] so that simulations are reproducible from
    a seed alone, and independent components can be given split, independent
    streams. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy with the same current state. *)

val split : t -> t
(** [split rng] advances [rng] and returns a new generator whose stream is
    statistically independent of the remainder of [rng]'s stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] unless [bound] is positive and finite (NaN
    included). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given positive mean. *)

val pareto : t -> alpha:float -> xmin:float -> float
(** Pareto-distributed sample: [P(X > x) = (xmin/x)^alpha] for [x >= xmin].
    Heavy-tailed — the mean is [alpha*xmin/(alpha-1)] for [alpha > 1] and
    infinite otherwise. Both parameters must be positive and finite. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

(** {2 Stream columns}

    Many independent generators kept side by side, for tables with one
    stream per row (the network's per-link transport streams). Each
    stream's state is 8 unboxed bytes: a column is one heap block however
    many streams it holds, and a draw allocates no state. Stream [i] of
    [column n ~seed] draws exactly the sequence of [create (seed i)]. *)

type column

val column : int -> seed:(int -> int) -> column
(** [column n ~seed] holds [n] streams, stream [i] seeded with [seed i].
    Raises [Invalid_argument] on a negative [n]. *)

val column_length : column -> int

val column_float : column -> int -> float -> float
(** [column_float c i bound] is {!float} drawn from stream [i]: the same
    value, and the same refusal of a bound that is not positive and
    finite. Raises [Invalid_argument] on an out-of-range [i]. *)
