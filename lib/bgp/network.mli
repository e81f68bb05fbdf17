(** A simulated network: one router per graph node, one bidirectional link
    per edge, with delayed FIFO message delivery.

    Per-message delay is [link_delay + U(0, link_jitter)], and deliveries on
    a directed link never reorder. Failing a link drops in-flight messages
    on it and signals both endpoint routers; restoring it triggers full-table
    re-advertisement (BGP session restart semantics). *)

type t

type remote = {
  remote_eid : int;  (** graph edge id of the link *)
  remote_src : int;
  remote_dst : int;
  remote_at : float;  (** absolute delivery time, FIFO floor already applied *)
  remote_epoch : int;  (** sender-side link epoch at send time *)
  remote_update : Update.t;
}
(** A cross-partition message: fully timestamped on the sending side, to be
    scheduled into the owning partition with {!deliver_remote} at an epoch
    barrier. *)

val create :
  ?policy:Policy.t ->
  ?ownership:bool array * (remote -> unit) ->
  config:Config.t ->
  Rfd_engine.Sim.t ->
  Rfd_topology.Graph.t ->
  t
(** One router per node. [policy] defaults to {!Policy.announce_all}; pass
    [Policy.no_valley relations] for valley-free routing. Damping deployment
    follows [config]. Raises [Invalid_argument] on invalid config.

    [ownership] puts the network in partitioned mode: only nodes flagged
    [true] get routers; messages to unowned destinations are handed —
    fully timestamped — to the given outbox function instead of the local
    event queue. Transport randomness is per directed link in every mode:
    delay jitter and loss/duplication draws depend only on each link's own
    send sequence, which is what makes results independent of the partition
    count. Administrative operations (link fail/restore, router crash/restart,
    degradation) must be replicated to {e every} partition by the caller;
    each replica applies the state change and signals only its own routers.
    Raises [Invalid_argument] when the ownership array length differs from
    the node count. *)

val owns : t -> int -> bool
(** Whether this network instance owns (hosts the router of) a node. Always
    [true] outside partitioned mode. Raises [Invalid_argument] on an
    out-of-range node. *)

val deliver_remote : t -> remote -> unit
(** Schedule a message drained from another partition's outbox. The epoch
    guard re-checks the link against this partition's replica at delivery
    time, so messages voided by a link failure are dropped exactly as in
    the single-domain run. Raises [Invalid_argument] when the destination
    is not owned here, or (from the simulator) when the delivery time lies
    in this partition's past — which cannot happen when the exchange obeys
    the epoch protocol's lookahead. *)

val sim : t -> Rfd_engine.Sim.t
val graph : t -> Rfd_topology.Graph.t
val hooks : t -> Hooks.t
(** Shared by every router; assign fields to observe the run. *)

val route_table : t -> Route.table
(** The intern table shared by every router in this network: all routes and
    AS paths built during the run are hash-consed here, in deterministic
    simulation order. Exposed for introspection (table sizes, leak checks in
    tests); mutating it directly is never necessary. *)

val router : t -> int -> Router.t
(** Raises [Invalid_argument] on an out-of-range or unowned node. *)

val num_routers : t -> int
val damping_at : t -> int -> bool
(** Whether damping is deployed at a node (per [config.deployment]). *)

(** {1 Driving the simulation} *)

val originate : t -> node:int -> Prefix.t -> unit
(** Immediately (at current simulation time). *)

val withdraw : t -> node:int -> Prefix.t -> unit

val schedule_originate : t -> at:float -> node:int -> Prefix.t -> unit
val schedule_withdraw : t -> at:float -> node:int -> Prefix.t -> unit

val fail_link : t -> int -> int -> unit
(** Raises [Invalid_argument] when the nodes are not adjacent. Idempotent. *)

val restore_link : t -> int -> int -> unit
val link_up : t -> int -> int -> bool
(** Administrative link state (not failed by {!fail_link}); the link may
    still be non-operational because an endpoint router is crashed. *)

val link_operational : t -> int -> int -> bool
(** [link_up] {e and} both endpoint routers alive — the predicate that
    gates message transport and session state. *)

val schedule_fail_link : t -> at:float -> int -> int -> unit
val schedule_restore_link : t -> at:float -> int -> int -> unit

(** {1 Router crash / restart}

    A crash tears down every operational session of the router (both
    endpoints observe BGP session failure, with implicit withdrawals and
    damping charges at the surviving peers) and blackholes the node until
    restart. A restart brings back exactly the sessions whose link is
    administratively up and whose other endpoint is alive, with full-table
    re-advertisement — the same semantics as {!restore_link}, applied to
    every incident session at once. *)

val crash_router : t -> int -> unit
(** Idempotent. Raises [Invalid_argument] on an out-of-range node. *)

val restart_router : t -> int -> unit
val router_is_up : t -> int -> bool
val schedule_crash : t -> at:float -> int -> unit
val schedule_restart : t -> at:float -> int -> unit

(** {1 Transport degradation (fault injection)} *)

val set_degradation : t -> src:int -> dst:int -> loss:float -> duplication:float -> unit
(** Configure the directed link [src -> dst]: every message sent on it is
    duplicated with probability [duplication], and every copy is then lost
    with probability [loss]. Surviving copies still obey the per-direction
    FIFO no-reorder guarantee. Sampling uses a dedicated seed-derived RNG,
    so a given [(config.seed, degradation)] is fully deterministic and
    zero probabilities leave the run bit-identical to a fault-free one.
    Raises [Invalid_argument] on probabilities outside [0, 1] or when the
    nodes are not adjacent. *)

val degradation : t -> src:int -> dst:int -> float * float
(** Current [(loss, duplication)] of the directed link. *)

val run : ?until:float -> t -> unit
(** Run the simulator to quiescence (or to [until]). *)

(** {1 Whole-network checks}

    Built on the {!Oracle}: routing is only declared settled when the
    Loc-RIB fixpoint holds {e and} every queue the protocol machinery can
    reopen routing from is empty. In particular, an update parked in an
    MRAI pending queue blocks convergence even with zero messages in
    flight — the failure mode the old fixpoint-only check missed. *)

val in_flight : t -> int
(** Messages currently on the wire. *)

val reuse_timer_events : t -> int
(** Total {!Router.reuse_timer_events} across routers — simulator events
    spent on reuse scheduling. *)

val peak_reuse_timers : t -> int
(** Sum of every router's {!Router.peak_reuse_timers}. Per-router peaks
    need not coincide in time, so this is an upper bound on the network's
    simultaneous reuse-timer heap residency (and exact in the common case
    where suppression builds up network-wide before any timer fires). *)

val activity : t -> Oracle.counts
(** Exact live totals: in-flight messages plus every router's parked MRAI
    updates, armed flush timers and outstanding reuse timers. *)

val rib_fixpoint : t -> Prefix.t -> bool
(** Every owned router's Loc-RIB entry for the prefix equals what its
    decision process would select right now. A partitioned ensemble is at a
    fixpoint iff every partition is. *)

val status : t -> Prefix.t -> Oracle.level
(** The oracle's verdict for a prefix: [Active], [Stable] (routing
    fixpoint reached, MRAI machinery drained, reuse timers may remain —
    the paper's releasing tail) or [Quiet] (nothing left that could ever
    touch routing). *)

val converged : t -> Prefix.t -> bool
(** [Oracle.is_stable (status t prefix)]: every router's Loc-RIB entry
    equals what its decision process would select right now, no messages
    in flight, no updates parked in MRAI pending queues, no armed flush
    timers. Outstanding reuse timers are allowed (routing is stable but
    suppressed paths may still be released later); use {!quiescent} to
    also require those drained. *)

val quiescent : t -> Prefix.t -> bool
(** [Oracle.is_quiet (status t prefix)]: {!converged} and no outstanding
    reuse timers — fully quiet, the simulation can produce no further
    routing activity for any prefix. *)

val reachable_count : t -> Prefix.t -> int
(** Routers with a best route to the prefix (including the originator). *)
