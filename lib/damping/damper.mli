(** RFC 2439 damping state: the decaying penalty of a RIB-In entry.

    A penalty is stored lazily, as a value plus the time it was last
    touched; every read and every charge first folds in the exponential
    decay since then ("settles").

    The arithmetic exists once, over {e penalty columns}: a {!slots} table
    keeps slot [i]'s value and time in two unboxed float arrays, so a
    router holds the damping state of all its entries, across all its
    sessions, in two flat arrays. The suppressed flag is the owner's: {!slot_record} is told
    whether the slot is suppressed and reports the transition. {!t} is the
    one-slot view of the same code, with its own flag.

    The owner (the router) is responsible for scheduling a timer at the
    reuse time when a charge reports [`Suppressed], and for calling
    [try_reuse] when that timer fires (re-scheduling if it returns
    [`Not_yet]). *)

type event =
  | Withdrawal
  | Reannouncement  (** announcement of a previously withdrawn route *)
  | Attribute_change  (** announcement changing the route's attributes *)

type cache
(** One-slot decay-factor memo shareable across slots and dampers with
    identical parameters (e.g. every RIB-In entry of one router). Entries
    touched at the same instants settle over the same [dt]; the cache turns
    those repeated [exp] calls into a float compare. Results are
    bit-identical with or without a cache. *)

val cache : unit -> cache

(** {1 Penalty columns} *)

type setting
(** A parameter set with its derived constants (decay rate, penalty
    ceiling) and an optional decay cache: what every slot of one owner
    shares. *)

val setting : ?cache:cache -> Params.t -> setting
(** Raises [Invalid_argument] when the parameters fail {!Params.validate}.
    [cache], when given, must only be shared among settings with an equal
    half-life (the memo is keyed on the decay rate, so a mismatch is safe
    but useless). *)

type slots
(** Penalty columns: per slot, a value and the time it was last settled.
    A fresh slot has zero penalty. *)

val slots : setting -> capacity:int -> slots

val grow : slots -> int -> unit
(** [grow s n] widens the columns to [n] slots (no-op when they already
    hold [n]); new slots have zero penalty. *)

val slot_penalty : slots -> int -> now:float -> float
(** Current decayed penalty of slot [i]; settles the slot. [now] must not
    precede the slot's last event. *)

val slot_record : slots -> int -> now:float -> suppressed:bool -> event -> [ `Ok | `Suppressed ]
(** Settle slot [i], then apply the increment for [event], clamping at
    {!Params.max_penalty}. Returns [`Suppressed] when the slot was not
    [suppressed] and this event pushed it over the cut-off; the caller
    records the new flag. *)

val slot_reuse_time : slots -> int -> now:float -> float
(** Absolute time at which slot [i]'s penalty will have decayed to the
    reuse threshold ([now] if it already has). Only meaningful for a
    suppressed slot. *)

val slot_try_reuse : slots -> int -> now:float -> [ `Reused | `Not_yet of float ]
(** For a suppressed slot: [`Reused] when the penalty has decayed to the
    reuse threshold (the caller clears its flag), otherwise the new
    earliest reuse time. *)

(** {1 One-slot view} *)

type t
(** One damper: a single-slot {!slots} table plus its suppressed flag. *)

val create : ?cache:cache -> Params.t -> t
(** Fresh state: zero penalty, not suppressed. Raises [Invalid_argument]
    when the parameters fail {!Params.validate}. [cache] as for
    {!setting}. *)

val params : t -> Params.t

val penalty : t -> now:float -> float
(** Current decayed penalty. [now] must not precede the last event. *)

val suppressed : t -> bool

val record : t -> now:float -> event -> [ `Ok | `Suppressed ]
(** Apply the increment for an update event, clamping at
    {!Params.max_penalty}. Returns [`Suppressed] when this event pushed the
    entry over the cut-off (transition only — recording onto an
    already-suppressed entry returns [`Ok]). *)

val reuse_time : t -> now:float -> float
(** Absolute time at which the penalty will have decayed to the reuse
    threshold ([now] if it already has). Raises [Invalid_argument] if the
    entry is not suppressed — an unsuppressed entry has no reuse event, and
    the zero delay this call used to return would arm a timer that fires
    immediately. *)

val try_reuse : t -> now:float -> [ `Reused | `Not_yet of float ]
(** If the penalty has decayed below the reuse threshold, clear the
    suppressed flag and return [`Reused]; otherwise return the new earliest
    reuse time. Raises [Invalid_argument] if not suppressed. *)

val events_recorded : t -> int
(** Number of {!record} calls that actually incremented the penalty. *)

val pp : Format.formatter -> t -> unit
