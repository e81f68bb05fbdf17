(** Append-only time series of [(time, value)] samples.

    Used to record penalty traces, update counts and damped-link counts
    during a simulation, and to bin them the way the paper's figures do
    (e.g. "number of updates in 5-second bins"). Samples must be appended
    in non-decreasing time order. *)

type t

val create : unit -> t

val add : t -> time:float -> float -> unit
(** Append a sample. Raises [Invalid_argument] if [time] precedes the last
    sample's time. *)

val set_level : t -> time:float -> float -> unit
(** Record a gauge's value at [time]. Like {!add}, except that a sample at
    the same time as the last one replaces it: the series keeps one sample
    per instant, the gauge's value after every change at that instant. That
    value does not depend on the order in which same-instant changes
    arrive. *)

val length : t -> int
val is_empty : t -> bool

val points : t -> (float * float) array
(** All samples in time order. The array is fresh; mutating it does not
    affect the series. *)

val times : t -> float array
(** [Array.map fst (points s)], without building the pairs. *)

val trim : t -> unit
(** Drop the spare capacity {!add} grows, once a series is complete and
    about to be kept or marshalled. A later {!add} still works. *)

val last : t -> (float * float) option
val first : t -> (float * float) option

val value_at : t -> float -> float option
(** [value_at s time] is the value of the latest sample at or before [time]
    (step interpolation), or [None] if [time] precedes the first sample. *)

val max_value : t -> float option
val min_value : t -> float option

val bin_sum : t -> width:float -> t0:float -> t1:float -> (float * float) array
(** [bin_sum s ~width ~t0 ~t1] sums sample values falling in each
    half-open bin [\[t0 + i*width, t0 + (i+1)*width)] and returns
    [(bin_start, sum)] rows covering [\[t0, t1)]. Used for the paper's
    update-series plots. *)

val bin_last : t -> width:float -> t0:float -> t1:float -> (float * float) array
(** Like {!bin_sum} but each bin reports the last sample value at or before
    the bin end (step sampling of a gauge such as the damped-link count).
    Bins before the first sample report [0.]. *)

val iter : t -> (time:float -> value:float -> unit) -> unit
val fold : t -> init:'a -> f:('a -> time:float -> value:float -> 'a) -> 'a

val to_csv : t -> string
(** "time,value\n" rows for external plotting. *)
