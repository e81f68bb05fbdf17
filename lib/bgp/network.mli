(** One partition's share of a simulated network: a router per owned
    graph node, a replica of every link's state, and delayed FIFO message
    delivery. {!Rfd_experiment.Par_net} builds one per partition and is
    the only way to drive a network; this module is its shard.

    Per-message delay is [link_delay + U(0, link_jitter)], and deliveries on
    a directed link never reorder or share an instant: each lands at least
    1 ns (or, from 2{^24} s on, one ulp) after the link's previous one.
    Failing a link drops in-flight messages on it and signals both endpoint
    routers; restoring it triggers full-table re-advertisement (BGP session
    restart semantics).

    Messages on the wire are rows of one network-wide in-flight table,
    five columns on one {!Rfd_engine.Column.Chunks} spine with a free
    list: a link to the next row, the sender-side link epoch, the
    announced route's interned path, the sender's root-cause option, and
    one int for the kind, the rel-pref and the prefix id. A directed
    link's rows in flight form a ring in send order. Sending copies an
    update's fields into a row and keeps no pointer to the update or its
    route; each delivery is a
    {!Rfd_engine.Sim.post} of the directed link's slot (below) to one
    delivery function, shared by local sends and {!deliver_remote}, which
    takes the slot's oldest row and rebuilds the update (and an
    announcement's route). The simulator
    breaks same-instant ties by post argument, so a delivery's place at
    its instant depends on its link alone, at every partition count,
    never on its row. A message in flight costs seven words (five in its
    row, two in its heap entry), owns no heap block and builds no
    closure, and its row drops the root cause as soon as it is delivered.
    So {!Hooks.t.on_deliver} sees an update equal ({!Update.equal}) to
    the one {!Hooks.t.on_send} saw, but not the same block.

    Link state is held in columns: per link its administrative state and
    epoch, and per directed link — at slot [2*eid + dir], [dir = 0] from
    the lower node id — its newest row in flight, its FIFO floor, loss
    and duplication as unboxed floats, and its delay and fault streams as
    8-byte {!Rfd_engine.Rng.column} states. Every router sends through one
    transport function keyed by that slot, so a session owns no transport
    closure, record or stream. The network also registers the channels its
    routers' timers post on ({!Router.ports}) and hands each post back to
    the owning router. *)

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
  ownership:bool array * (remote -> unit) ->
  config:Config.t ->
  Rfd_engine.Sim.t ->
  Rfd_topology.Graph.t ->
  t
(** [ownership = (owned, outbox)]: only nodes flagged in [owned] get
    routers, and a message to an unowned destination is handed — fully
    timestamped — to [outbox] instead of the local event queue. [policy]
    defaults to {!Policy.announce_all}; pass [Policy.no_valley relations]
    for valley-free routing. Damping deployment follows [config].

    Transport randomness is per directed link: delay jitter and
    loss/duplication draws depend only on each link's own send sequence,
    which is what makes results independent of the partition count.
    Administrative operations (link fail/restore, router crash/restart,
    degradation) must be replicated to {e every} partition by the caller;
    each replica applies the state change and signals only its own routers.
    Raises [Invalid_argument] on invalid config, when the ownership
    array length differs from the node count, or when the graph's [2m]
    directed links do not fit a timer post's argument beside
    {!Router.prefix_bits} prefix bits (above [2{^23}] links). *)

val deliver_remote : t -> remote -> unit
(** Put a message drained from another partition's outbox on this
    partition's wire, as a row of the in-flight table. The epoch
    guard re-checks the link against this partition's replica at delivery
    time, so messages voided by a link failure are dropped exactly as in
    the single-domain run. Raises [Invalid_argument] when the destination
    is not owned here, or (from the simulator) when the delivery time lies
    in this partition's past — which cannot happen when the exchange obeys
    the epoch protocol's lookahead. A refused message leaves nothing in
    flight. *)

val sim : t -> Rfd_engine.Sim.t
val graph : t -> Rfd_topology.Graph.t
val hooks : t -> Hooks.t
(** Shared by every router; assign fields to observe the run. *)

val route_table : t -> Route.table
(** The network's one intern table, shared by every router: the AS paths
    built during the run are hash-consed here, in deterministic simulation
    order ({!Route.table} is {!As_path.table}; routes are not interned, so
    {!Route.table_size} reads 0 and {!As_path.table_size} counts the
    paths). Exposed for introspection (table sizes, leak checks in tests);
    mutating it directly is never necessary. *)

val router : t -> int -> Router.t
(** Raises [Invalid_argument] on an out-of-range or unowned node. *)

val num_routers : t -> int
val damping_at : t -> int -> bool
(** Whether damping is deployed at a node (per [config.deployment]). *)

(** {1 Replica primitives}

    Each takes effect immediately, at this partition's current simulation
    time. {!Rfd_experiment.Par_net} routes [originate]/[withdraw] to the
    owning partition and schedules the administrative operations in
    every partition. *)

val originate : t -> node:int -> Prefix.t -> unit
(** Raises [Invalid_argument] when the node is not owned here. *)

val withdraw : t -> node:int -> Prefix.t -> unit

val fail_link : t -> int -> int -> unit
(** Raises [Invalid_argument] when the nodes are not adjacent. Idempotent. *)

val restore_link : t -> int -> int -> unit
val link_up : t -> int -> int -> bool
(** Administrative link state (not failed by {!fail_link}); the link may
    still be non-operational because an endpoint router is crashed. *)

val link_operational : t -> int -> int -> bool
(** [link_up] {e and} both endpoint routers alive — the predicate that
    gates message transport and session state. *)

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

(** {1 Transport degradation (fault injection)} *)

val set_degradation : t -> src:int -> dst:int -> loss:float -> duplication:float -> unit
(** Configure the directed link [src -> dst]: every message sent on it is
    duplicated with probability [duplication], and every copy is then lost
    with probability [loss]. Surviving copies still obey the per-direction
    FIFO no-reorder guarantee. Sampling uses a dedicated seed-derived
    stream per directed link (the fault column, seeded for every link at
    the first call), so a given [(config.seed, degradation)] is fully
    deterministic and zero probabilities leave the run bit-identical to a
    fault-free one.
    Raises [Invalid_argument] on probabilities outside [0, 1] or when the
    nodes are not adjacent. *)

val degradation : t -> src:int -> dst:int -> float * float
(** Current [(loss, duplication)] of the directed link. *)

(** {1 Per-shard sums}

    {!Rfd_experiment.Par_net} adds these up over its partitions and
    classifies the totals with the {!Oracle}. *)

val in_flight : t -> int
(** Messages currently on the wire. *)

type event_counts = {
  deliveries : int;  (** messages delivered (or dropped at delivery) *)
  flushes : int;  (** MRAI flush posts run *)
  reuses : int;  (** [Exact]-mode reuse timer posts run *)
  wheels : int;  (** [Tick]-mode wheel bucket posts run *)
  ops : int;
      (** events on channels other than these four: the administrative and
          workload operations {!Rfd_experiment.Par_net} schedules *)
}
(** Executed simulator events by kind. The kinds partition
    {!Rfd_engine.Sim.events_executed}: retracted posts count in none. *)

val event_counts : t -> event_counts
(** This shard's simulator, by channel. *)

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

val reachable_count : t -> Prefix.t -> int
(** Owned routers with a best route to the prefix (including the
    originator). *)
