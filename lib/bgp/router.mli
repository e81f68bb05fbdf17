(** A BGP-style path-vector router.

    Each router is one AS. It keeps per-peer RIB-In tables (with optional
    damping state per entry), a Loc-RIB of best routes, and per-peer RIB-Out
    mirrors of what it last advertised. A session is a peer id and the
    directed link to it; updates leave through the one transmit function of
    the router's {!ports}, keyed by that link, and {!Network} models the
    link delays.

    Timers are simulator posts on the channels of the {!ports}, not
    closures, and a router holds no event handle: an MRAI flush or an
    [Exact] reuse timer posts the session's link and the prefix id; a
    [Tick] wheel bucket posts its bucket number and the router id, once
    per occupied bucket. The network hands each post back to
    {!flush_due}, {!reuse_due} or {!wheel_due}. A flush armed when its
    session resets, or a bucket emptied by migration, is
    {!Rfd_engine.Sim.retract}ed: it never runs and counts in no event
    total.

    State layout: a router owns no array. Every router of a network is
    a view of one {!arena}, a set of network-wide columns that
    {!Network.create} lays out once, router by router in node order: the
    view is the arena, the router's id, its row, the base and count of
    its sessions, and its damping setting. Sessions are ranked by
    ascending peer id, and router [r]'s session [k] is cell [base r + k]
    of the session columns (peer id, link, MRAI interval, shared per-peer
    MRAI deadline, up flag). Per-prefix session state is the slot
    columns, prefix-major over all [S] sessions of the arena: session
    [k]'s slot for prefix id [i] is [i * S + base r + k], so a decision
    scans one contiguous run. The slot columns are a flags byte (entry
    exists, suppressed, reuse timer pending, update parked, flush armed),
    the received and advertised routes' AS paths, the last root cause
    received, the MRAI deadline and a parked update's root cause. The
    penalty value and time (one {!Rfd_damping.Damper.slots}, unboxed
    floats), the [Tick] wheel bucket and, in RCN mode, the root-cause
    histories exist only for the [D] sessions of routers that damp, laid
    out the same way from a second base. The Loc-RIB and the originated
    prefixes are indexed by (prefix, router row), and per-router counters
    (root-cause sequence, reuse timers resident) by row. Every column
    starts at {!Config.prefix_table_hint} prefixes, and the arena has one
    prefix capacity: a prefix id past it widens every column once, and
    every cell keeps its index. Nothing a router does depends on the
    capacity. A slot owns no heap block, and a session owns no record;
    the handles every router shares (simulator, hooks, policy, config,
    {!ports}, path table) are held once, by the arena.

    A parked update is its flag and its root cause. When its flush fires,
    the router sends what the decision process exports to that session
    now, which is what was parked: every best-path change re-emits to
    every up session, replacing or dropping the parked update, and
    {!peer_down} drops every parked update of the session.

    No column holds a {!Route.t}. A slot's prefix is its index, so a
    route column (RIB-In, RIB-Out, Loc-RIB) holds the route's
    {!As_path.t}, interned in the network's path table (a path
    received from another partition stays interned in that partition's
    table, and {!As_path.equal} compares it structurally). A route is
    built where an update leaves the router, and on demand by {!best},
    {!rib_in_route}, {!recompute_best} and the best-change hook.

    Protocol behaviour implemented here:
    - decision process: import preference (policy), then shortest AS path,
      then lowest peer id; self-originated routes always win;
    - sender-side AS-loop avoidance and receiver-side loop detection;
    - MRAI rate limiting of announcements (per peer and prefix, jittered),
      with withdrawals exempt unless configured otherwise; under
      {!Config.t.mrai_per_peer} every update parked behind a session's
      deadline is sent when it passes, and no prefix is announced twice
      on a session within an interval in either mode;
    - RFC 2439 route flap damping per RIB-In entry, with reuse timers
      posted to the simulator;
    - RCN filtering and propagation (Section 6 of the paper) and the
      selective-damping baseline, per {!Config.damping_mode}. *)

type t
(** A router: a view of its place in an {!arena}. *)

type arena
(** The network-wide columns that hold every router's state. *)

type ports = {
  transmit : int -> Update.t -> unit;
      (** [transmit link update] puts an update on a directed link *)
  flush_on : Rfd_engine.Sim.channel;  (** MRAI flush posts *)
  reuse_on : Rfd_engine.Sim.channel;  (** [Exact] reuse timer posts *)
  wheel_on : Rfd_engine.Sim.channel;  (** [Tick] wheel bucket posts *)
  node_bits : int;
      (** low bits of a wheel post's argument that hold the router id;
          every router id must fit in them *)
}
(** What a router needs from its network: one transport function shared
    by every session, and the channels its timers post on. *)

val prefix_bits : int
(** [31]: a flush or reuse post's argument is [link * 2{^31} + prefix id],
    so links above [Rfd_engine.Sim.max_arg / 2{^31}] cannot carry timers
    and prefix ids above [2{^31} - 1] are refused when a timer is armed. *)

val session_link : int -> int
(** The directed link named by a flush or reuse post's argument. Its source
    endpoint owns the timer and its destination is the peer. *)

val wheel_router : node_bits:int -> int -> int
(** The router named by a wheel post's argument, given the ports'
    [node_bits]. *)

val flush_due : t -> peer:int -> int -> unit
(** Run the MRAI flush of a post's argument on the session to [peer]: a
    parked update leaves as the session's current export of the prefix
    (an announcement of the best path with this router prepended, or a
    withdrawal), with the root cause it was parked with. *)

val reuse_due : t -> peer:int -> int -> unit
(** Run the [Exact]-mode reuse timer of a post's argument on the session
    to [peer]. *)

val wheel_due : t -> int -> unit
(** Fire the [Tick]-mode wheel bucket of a post's argument. *)

val arena :
  sim:Rfd_engine.Sim.t ->
  paths:As_path.table ->
  policy:Policy.t ->
  config:Config.t ->
  hooks:Hooks.t ->
  ports:ports ->
  routers:int ->
  sessions:int ->
  damped:int ->
  arena
(** Columns for [routers] routers with [sessions] sessions in all,
    [damped] of them at routers that damp, each slot column at
    {!Config.prefix_table_hint} prefixes; {!create} lays the routers out
    in it. [Nowhere] deployment needs no penalty cells, and [Fraction] or
    [Only] deployment only those of the routers that damp. [paths] is the
    intern table every advertised path is built through; {!Network}
    passes its one table, so identical paths are physically shared
    network-wide. The config is taken as checked: its only library
    caller, {!Network.create}, validates it first. *)

val create :
  arena ->
  id:int ->
  sessions:(int * int) array ->
  damping:(Rfd_damping.Damper.setting * Rfd_damping.Reuse_index.t option) option ->
  rng:Rfd_engine.Rng.t ->
  t
(** Lay out a router with all its sessions in the arena's next row.
    [sessions] holds one (peer id, directed link) pair per session, in
    ascending peer order (the order {!Rfd_topology.Graph.neighbors}
    gives, with the links over {!Rfd_topology.Graph.incident_edge_ids});
    a session's rank is its index, and updates to the peer go to
    [ports.transmit link]. A session stores the link's int and nothing
    else of the transport. The sessions are fixed for the router's life.

    [damping] is the setting of this router's effective parameter set
    ([None] = damping not deployed here) and, in [Tick] mode, the reuse
    index for it: the router keeps a reuse wheel iff it is given an
    index, whose tick is the wheel's. {!Network} resolves the parameter
    set from the config's global preset, per-router overrides and
    deployment policy, and builds one setting and one index per distinct
    parameter set; a router builds neither. [rng] gives each session its
    MRAI jitter, one draw per session in rank order, and nothing else;
    hand each router a split stream.

    The damping setting is taken as checked:
    {!Rfd_damping.Damper.setting} refused invalid parameters when it was
    built. Raises [Invalid_argument] with a [Router.create:] message on a
    session to itself, a negative peer id, a peer repeated or out of
    ascending order, a link outside
    [\[0, Rfd_engine.Sim.max_arg / 2{^31}\]], a reuse index under an
    [Exact]-mode config, or when the arena has no room left for the
    router's row, sessions or damped sessions. *)

val vacant : arena -> t
(** A view of no router, for a node another partition owns: its {!id}
    is [-1], and nothing else may be asked of it. *)

val id : t -> int
(** The router's node id; [-1] for {!vacant}. *)

val damping_params : t -> Rfd_damping.Params.t option
(** Effective damping parameters at this router. *)

val peer_ids : t -> int list
(** Ascending. *)

(** {1 Local prefix origination} *)

val originate : t -> Prefix.t -> unit
(** Start originating a prefix (idempotent). Announces to peers per policy.
    Stamps a fresh root cause. *)

val withdraw_prefix : t -> Prefix.t -> unit
(** Stop originating (no-op when not originating). *)

val originates : t -> Prefix.t -> bool

(** {1 Message handling — called by the transport} *)

val receive : t -> from_peer:int -> Update.t -> unit

val peer_down : t -> peer:int -> unit
(** Session to [peer] lost: RIB-In entries from it are withdrawn (with
    damping penalties), pending output is dropped, armed flush posts are
    retracted, both MRAI deadline forms (per-prefix and shared per-peer)
    are reset, and nothing more is sent to it until {!peer_up}. *)

val peer_up : t -> peer:int -> unit
(** Session restored: RIB-Out for the peer is reset and current best routes
    are re-advertised. Damping state survives the session flap. *)

(** {1 Inspection} *)

val session_up : t -> peer:int -> bool
(** Whether the session to [peer] is currently up (not torn down by a link
    failure or a crash of either endpoint). Raises [Invalid_argument] on an
    unknown peer. *)

val best : t -> Prefix.t -> Route.t option
(** Best route (as stored, without this router's own AS prepended);
    self-originated prefixes report an empty-path route. *)

val best_peer : t -> Prefix.t -> int option
(** Peer the best route was learned from; [None] when self-originated or
    unreachable. *)

val rib_in_route : t -> peer:int -> Prefix.t -> Route.t option
val is_suppressed : t -> peer:int -> Prefix.t -> bool
val penalty : t -> peer:int -> Prefix.t -> float
(** The entry's penalty decayed to now, 0. when it has no damping state.
    A pure read, like every inspection here: reading it mid-run leaves
    the run unchanged. *)

val suppressed_count : t -> int
(** Number of currently suppressed RIB-In entries across peers/prefixes. *)

val peak_reuse_timers : t -> int
(** High-water mark of this router's reuse-scheduling events resident in
    the simulator heap at once — per-entry timers ([Exact]) or occupied
    wheel slots ([Tick]). *)

val known_prefixes : t -> Prefix.t list
(** Prefixes present in Loc-RIB or any RIB-In, ascending, deduplicated. *)

val recompute_best : t -> Prefix.t -> Route.t option
(** What the decision process would select right now (ignoring the cached
    Loc-RIB) — used by convergence checks. *)

(** {1 Convergence-oracle introspection}

    Exact live counts of this router's outstanding timer work, summed into
    {!Oracle.counts} (with [in_flight = 0]; messages on the wire belong to
    the transport and are counted by {!Network}). *)

val activity : t -> Oracle.counts
(** Parked MRAI updates, armed flush timers and outstanding reuse timers
    across all peers. *)

val peer_activity : t -> peer:int -> Oracle.counts
(** Same, restricted to one peering session. Raises [Invalid_argument] on
    an unknown peer. *)
