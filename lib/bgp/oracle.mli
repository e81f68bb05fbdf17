(** Network-wide convergence oracle.

    The paper's four-state model (charging → suppression → releasing →
    converged) hinges on detecting *when* the network actually stops
    changing. Checking the Loc-RIB fixpoint alone is not enough: an update
    parked in an MRAI pending queue, a scheduled flush timer, or a message
    on the wire can all re-open routing after the RIBs momentarily agree.

    This module defines quiescence precisely, as a pure classification over
    activity counts gathered from the routers and the transport:

    - {b Active}: routing can still change on its own — messages in
      flight, updates parked behind MRAI deadlines, flush timers armed, or
      a router whose Loc-RIB disagrees with its decision process.
    - {b Stable}: the routing fixpoint is reached and the MRAI machinery
      is drained, but reuse timers are still outstanding (the paper's
      releasing tail: suppressed routes will come back, possibly noisily).
    - {b Quiet}: stable and every reuse timer has fired — nothing in the
      simulation will ever touch routing again.

    {!Rfd_experiment.Par_net.converged} and
    {!Rfd_experiment.Par_net.quiescent} classify the counts summed over
    every partition's {!Network.activity}; experiments report
    time-to-stable and time-to-quiet as distinct metrics. *)

type counts = {
  in_flight : int;  (** messages on the wire (transport-owned) *)
  mrai_pending : int;  (** updates parked in MRAI pending queues *)
  scheduled_flushes : int;  (** armed MRAI flush timer events *)
  reuse_timers : int;  (** outstanding damping reuse timers *)
}

val zero : counts

val add : counts -> counts -> counts
(** Field-wise sum — fold router activity into a network total. *)

val pp_counts : Format.formatter -> counts -> unit

type level = Active | Stable | Quiet

val classify : rib_fixpoint:bool -> counts -> level
(** [classify ~rib_fixpoint counts] per the definitions above.
    [rib_fixpoint] must hold exactly when every router's Loc-RIB entry
    equals what its decision process would select right now. *)

val is_stable : level -> bool
(** [Stable] or [Quiet] — routing can no longer change except by reuse
    timers releasing suppressed routes. *)

val is_quiet : level -> bool
(** [Quiet] only — no timers of any kind remain. *)

val pp_level : Format.formatter -> level -> unit
val level_to_string : level -> string
