(** Routing update messages.

    An update announces a route or withdraws a prefix. Optional extension
    attributes carry the Root Cause Notification ([rc]) and the relative
    preference used by the selective-damping baseline of Mao et al.
    ([rel_pref]: how the announced route compares, at the sender, with the
    sender's previous announcement to that peer). *)

type rel_pref = Better | Worse | Same_pref

type t =
  | Announce of { route : Route.t; rc : Root_cause.t option; rel_pref : rel_pref option }
  | Withdraw of { prefix : Prefix.t; rc : Root_cause.t option }

val announce : ?rc:Root_cause.t -> ?rel_pref:rel_pref -> Route.t -> t
val withdraw : ?rc:Root_cause.t -> Prefix.t -> t

val prefix : t -> Prefix.t
val rc : t -> Root_cause.t option
val is_withdrawal : t -> bool

val equal : t -> t -> bool
(** Same kind, and equal fields: routes by {!Route.equal}, root causes by
    {!Root_cause.equal}. A delivered update equals the one sent, but is
    not the same block. *)

val pp : Format.formatter -> t -> unit
