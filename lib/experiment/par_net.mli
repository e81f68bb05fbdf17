(** Partitioned conservative-parallel BGP network — the only way to build
    and drive a network. {!Runner} runs every scenario through it, and a
    hand-driven simulation is [create ~partitions:1], then {!originate},
    the [schedule_*] operations and {!drive}; there is no second driver.

    One {!Rfd_bgp.Network} shard (with its own simulator) per topology
    partition, advanced in lockstep epochs ({!Rfd_engine.Par_sim}) with the
    link delay as the conservative lookahead. Cross-partition BGP messages travel
    through deterministic per-(src, dst) FIFO mailboxes
    ({!Rfd_engine.Partition}) exchanged at epoch barriers; with several
    partitions, observations are canonicalised by {!Recorder} into one
    replay bus.

    Execution is bit-identical for any partition count, 1 included, at any
    link jitter, zero included: transport draws come from
    per-directed-link RNG streams, so they do not depend on how sends
    interleave across partitions, and every simulator breaks a
    same-instant tie by what the events are ({!Rfd_engine.Sim.post}): a
    delivery by its directed link, a timer by its session and prefix or
    its wheel bucket and router, an operation by its row in the op
    table. *)

type t

val create :
  ?policy:Rfd_bgp.Policy.t -> config:Rfd_bgp.Config.t -> partitions:int -> Rfd_topology.Graph.t -> t
(** Partition the graph into [min partitions num_nodes] balanced connected
    chunks ({!Rfd_topology.Graph.partition}) and build one network per
    chunk. Raises [Invalid_argument] when [partitions < 1], the graph is
    empty, or the config fails validation. With several partitions it
    spawns one epoch worker domain per partition beyond the first, which
    live until {!shutdown} — callers must shut down (wrap with
    [Fun.protect]). One partition spawns no domain: its epochs run in the
    calling domain. *)

val shutdown : t -> unit
(** Join the epoch workers. Idempotent, and safe after a {!drive} that
    raised (an event's exception surfaces from [drive] once every
    partition has finished the epoch). The structure stays readable
    afterwards. *)

val drive : ?until:float -> ?max_events:int -> t -> [ `Drained | `Horizon | `Budget ]
(** Run lockstep epochs until the queues drain, [until] is passed, or the
    corrected event count ({!sim_events}) reaches [max_events]. Budget and
    horizon are checked at epoch barriers only, so either can overshoot by
    at most one epoch — identically for every partition count, because the
    barrier sequence is partition-invariant. *)

val flush : t -> unit
(** Replay observations buffered since the last barrier and deliver any
    mailboxed cross-partition messages. Called automatically at every
    barrier; call after direct [originate]/[withdraw] at a phase boundary
    if observers must see those sends before the next {!drive}. *)

val bus : t -> Rfd_bgp.Hooks.t
(** The observation bus; attach {!Collector} and {!Recorder.transcript}
    here. With one partition it is that network's own
    {!Rfd_bgp.Network.hooks} and observers see events in execution order.
    With several it is a replay bus fed at every barrier with all
    partitions' events, sorted by (time, owner router, per-owner
    sequence).

    The two orders differ only among different routers' events at one
    timestamp: execution order breaks such a tie by the events' post
    arguments ({!Rfd_engine.Sim.post}), not by router. Such ties are
    routine: tick-mode reuse wheels fire on a shared, unjittered grid, a
    router crash signals all its neighbours at once, and without link
    jitter deliveries share instants. They never change the simulation
    (routers interact only through links with positive delay).
    {!Collector} is insensitive to their order and {!Recorder.transcript}
    sorts each instant by owner, so results and transcripts agree for
    every partition count. Any other observer that prints events one by
    one sees ties in execution order at one partition. *)

val partitions : t -> int
val graph : t -> Rfd_topology.Graph.t

val part_of : t -> int -> int
(** Owning partition of a node. *)

val cut_edges : t -> int
(** Undirected topology edges whose endpoints live in different partitions. *)

val iter_nets : t -> (Rfd_bgp.Network.t -> unit) -> unit
(** Iterate the per-partition networks in partition order (introspection —
    e.g. summing interning-table sizes). *)

(** {1 Events and clocks} *)

val sim_events : t -> int
(** Total executed events, corrected for broadcast administrative
    operations (each counted once, as a single-domain run would). *)

val per_partition_events : t -> int array
(** Raw per-partition executed-event counts (uncorrected). *)

val event_counts : t -> Rfd_bgp.Network.event_counts
(** {!sim_events} by kind, summed over partitions, with the same
    correction applied to the op count: the kinds sum to {!sim_events}. *)

val peak_heap : t -> int
(** Sum of per-partition simulator heap high-water marks. Depends on the
    partition count (excluded from {!Runner.result_digest}). *)

val epochs : t -> int
(** Lockstep epochs executed so far. *)

val now : t -> float
(** Global clock: max over partition clocks = time of the latest executed
    event (or the time {!advance_all} last jumped to). *)

val advance_all : t -> time:float -> unit
(** Jump every partition clock forward to [time] (never backward). Call
    with [now t] before direct originations at a phase boundary so send
    times are sampled from the same clock in every partition layout. *)

(** {1 Driving} *)

val originate : t -> node:int -> Rfd_bgp.Prefix.t -> unit
(** Immediately, on the owning partition's clock. At a phase boundary,
    call [advance_all t ~time:(now t)] first. *)

val withdraw : t -> node:int -> Rfd_bgp.Prefix.t -> unit

val schedule_originate : t -> at:float -> node:int -> Rfd_bgp.Prefix.t -> unit
(** Routed: one post on the owning partition's queue. Every [schedule_*]
    appends its operation to a table and posts the operation's index,
    and raises [Invalid_argument] before any partition is touched when
    [at] is NaN or earlier than {!now}, or when its target is not in the
    graph: a node outside [[0, num_nodes)] for an origination,
    withdrawal, crash or restart, or a pair of nodes without an edge for
    a link operation. So a refused call schedules nothing anywhere, the
    same calls are accepted at every partition count, and a bad target
    never reaches an event. *)

val schedule_withdraw : t -> at:float -> node:int -> Rfd_bgp.Prefix.t -> unit

val schedule_fail_link : t -> at:float -> int -> int -> unit
(** Broadcast: posted in every partition, in partition order, each
    updating its own replica of link state and signalling only its own
    routers. Likewise the other administrative operations below. *)

val schedule_restore_link : t -> at:float -> int -> int -> unit
val schedule_crash : t -> at:float -> int -> unit
val schedule_restart : t -> at:float -> int -> unit
val set_degradation : t -> src:int -> dst:int -> loss:float -> duplication:float -> unit
(** Immediately, in every partition (see {!Rfd_bgp.Network.set_degradation}). *)

(** {1 Whole-network checks}

    Built on the {!Rfd_bgp.Oracle}: routing is only declared settled when
    the Loc-RIB fixpoint holds {e and} every queue the protocol machinery
    can reopen routing from is empty. In particular, an update parked in an
    MRAI pending queue blocks convergence even with zero messages in
    flight. *)

val router : t -> int -> Rfd_bgp.Router.t
(** The router of a node, read from its owning partition. Raises
    [Invalid_argument] on an out-of-range node. *)

val activity : t -> Rfd_bgp.Oracle.counts
(** Summed over partitions, plus cross-partition messages still parked in
    mailboxes (they are in flight, just not yet scheduled). *)

val rib_fixpoint : t -> Rfd_bgp.Prefix.t -> bool

val status : t -> Rfd_bgp.Prefix.t -> Rfd_bgp.Oracle.level
(** The oracle's verdict for a prefix: [Active], [Stable] (routing
    fixpoint reached, MRAI machinery drained, reuse timers may remain —
    the paper's releasing tail) or [Quiet] (nothing left that could ever
    touch routing). *)

val converged : t -> Rfd_bgp.Prefix.t -> bool
(** [Oracle.is_stable (status t prefix)]: outstanding reuse timers are
    allowed (suppressed paths may still be released later). *)

val quiescent : t -> Rfd_bgp.Prefix.t -> bool
(** [Oracle.is_quiet (status t prefix)]: also no outstanding reuse timers,
    so the simulation can produce no further routing activity. *)

val reachable_count : t -> Rfd_bgp.Prefix.t -> int
(** Routers with a best route to the prefix (including the originator). *)

val reuse_timer_events : t -> int
val peak_reuse_timers : t -> int

val paths_interned : t -> int
(** Summed per-partition path intern table sizes (each partition interns
    its own routers' paths; routes are not interned). *)
