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

    State layout: sessions are ranked by ascending peer id, and each
    per-session value (peer id, link, MRAI interval, shared per-peer MRAI
    deadline, up flag, RCN history where the router damps in RCN mode) is
    a column of that length. Per-prefix state is one set of router-level
    slot columns, prefix-major: with [d] sessions, session [k]'s slot for
    prefix id [i] is [i * d + k]. The slot columns are a flags byte
    (entry exists, suppressed, reuse timer pending, update parked, flush
    armed), the received and advertised routes' AS paths, the last root
    cause, the MRAI deadline, the MRAI queue, the [Tick] wheel bucket and, only where
    the router damps, the penalty value and time as unboxed floats (one
    {!Rfd_damping.Damper.slots}). They are empty until a slot is first
    written, then start at {!Config.prefix_table_hint} prefixes and double
    together; a slot owns no heap block, and a session owns no record.
    The Loc-RIB and the originated prefixes are router-level columns
    indexed by prefix id.

    No column holds a {!Route.t}. A slot's prefix is its index, so a
    route column (RIB-In, RIB-Out, Loc-RIB, a parked update) holds the
    route's {!As_path.t}, interned in the network's path table (a path
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
(** Run the MRAI flush of a post's argument on the session to [peer]. *)

val reuse_due : t -> peer:int -> int -> unit
(** Run the [Exact]-mode reuse timer of a post's argument on the session
    to [peer]. *)

val wheel_due : t -> int -> unit
(** Fire the [Tick]-mode wheel bucket of a post's argument. *)

val create :
  ?paths:As_path.table ->
  sim:Rfd_engine.Sim.t ->
  id:int ->
  policy:Policy.t ->
  config:Config.t ->
  damping:Rfd_damping.Params.t option ->
  rng:Rfd_engine.Rng.t ->
  hooks:Hooks.t ->
  ports:ports ->
  unit ->
  t
(** [damping] is this router's effective parameter set ([None] = damping
    not deployed here) — {!Network} resolves it from the config's global
    preset, per-router overrides and deployment policy. [rng] is consumed
    for MRAI jitter; hand each router a split stream. [paths] is the
    intern table every advertised path is built through; {!Network} passes
    its one table to every router, so identical paths are physically
    shared network-wide (a private table is created when omitted). *)

val id : t -> int

val damping_params : t -> Rfd_damping.Params.t option
(** Effective damping parameters at this router. *)

val connect : t -> peer:int -> link:int -> unit
(** Register a peering session over the directed link [link] (this router
    to [peer]); updates to the peer go to [ports.transmit link]. The
    session stores the int and nothing else of the transport, and draws
    its MRAI jitter from the router's stream. Sessions are set up before
    the router holds any RIB state: a new session would move every slot,
    so [connect] raises [Invalid_argument] once the router holds slots,
    as it does on duplicate peers, self-peering, a negative peer id, or a
    link outside [\[0, Rfd_engine.Sim.max_arg / 2{^31}\]]. *)

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
(** 0. when the entry has no damping state. *)

val suppressed_count : t -> int
(** Number of currently suppressed RIB-In entries across peers/prefixes. *)

val reuse_timer_events : t -> int
(** Simulator events this router has spent on reuse scheduling so far:
    fired per-entry reuse timers in [Config.Exact] mode (including [`Not_yet]
    re-checks), fired wheel slots in [Config.Tick] mode. *)

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
