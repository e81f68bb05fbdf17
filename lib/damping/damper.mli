(** RFC 2439 damping state: the decaying penalties of RIB-In entries.

    A penalty is stored lazily, as a value plus the time it was last
    touched. Every charge, reuse-time query and reuse attempt first folds
    in the exponential decay since then ("settles"), with a plain [exp]
    and nothing memoised; {!slot_penalty} computes the decayed value
    without storing it, so reading a penalty never changes a run.

    The state is {e penalty columns}: a {!slots} table keeps slot [i]'s
    value and time in two unboxed float arrays, so a network holds the
    damping state of every entry of every router that damps, across all
    their sessions, in two flat arrays. The columns hold no parameters:
    each call names the {!setting} of the slot's owner, so slots under
    different parameter sets share one table. The suppressed flag is the
    owner's: {!slot_record} is told whether the slot is suppressed and
    reports the transition.

    The owner (the router) is responsible for scheduling a timer at the
    reuse time when a charge reports [`Suppressed], and for calling
    {!slot_try_reuse} when that timer fires (re-scheduling if it returns
    [`Not_yet]). *)

type event =
  | Withdrawal
  | Reannouncement  (** announcement of a previously withdrawn route *)
  | Attribute_change  (** announcement changing the route's attributes *)

type setting
(** A parameter set with its derived constants (decay rate, penalty
    ceiling): what every slot of one owner shares. A setting holds no
    mutable state, so one value serves every owner that damps with the
    same parameters: a network builds one per distinct parameter set
    and hands it to each router that damps with it. *)

val setting : Params.t -> setting
(** Raises [Invalid_argument] with a [Damper.setting:] message when the
    parameters fail {!Params.validate}. *)

val params : setting -> Params.t
(** The parameters a setting was built from. *)

val lambda : setting -> float
(** The decay rate, {!Params.lambda} of the parameters, computed once. *)

type slots
(** Penalty columns: per slot, a value and the time it was last settled.
    A fresh slot has zero penalty. *)

val slots : capacity:int -> slots

val grow : slots -> int -> unit
(** [grow s n] widens the columns to [n] slots (no-op when they already
    hold [n]); new slots have zero penalty. *)

val slot_penalty : setting -> slots -> int -> now:float -> float
(** Current decayed penalty of slot [i] under the setting, computed
    without storing it: a read leaves the slot as it was. [now] must not
    precede the slot's last settle (raises [Invalid_argument]). *)

val slot_record :
  setting -> slots -> int -> now:float -> suppressed:bool -> event -> [ `Ok | `Suppressed ]
(** Settle slot [i], then apply the increment for [event], clamping at
    {!Params.max_penalty}. Returns [`Suppressed] when the slot was not
    [suppressed] and this event pushed it over the cut-off; the caller
    records the new flag. *)

val slot_reuse_time : setting -> slots -> int -> now:float -> float
(** Settle slot [i] and return the absolute time at which its penalty will
    have decayed to the reuse threshold ([now] if it already has). Only
    meaningful for a suppressed slot. *)

val slot_try_reuse : setting -> slots -> int -> now:float -> [ `Reused | `Not_yet of float ]
(** For a suppressed slot: settle it, then [`Reused] when the penalty has
    decayed to the reuse threshold (the caller clears its flag), otherwise
    the new earliest reuse time. *)
