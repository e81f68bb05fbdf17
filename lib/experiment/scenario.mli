(** Declarative experiment descriptions.

    A scenario names everything needed to reproduce one simulation run: the
    topology, routing policy, damping setup, the flap pattern at the origin
    stub, and instrumentation probes. {!Runner.run} executes it. *)

type topology =
  | Mesh of { rows : int; cols : int }
      (** 2-D torus, the paper's mesh; "100 nodes" is [Mesh {rows=10; cols=10}]. *)
  | Internet of { nodes : int; m : int }
      (** Barabási–Albert graph with [m] links per new node — the
          Internet-derived, long-tailed-degree topology. *)
  | Custom of Rfd_topology.Graph.t

type policy_kind =
  | Announce_all  (** the paper's shortest-path policy *)
  | No_valley  (** valley-free export with Gao–Rexford preferences *)

type mechanism =
  | Origin_updates
      (** the origin withdraws/re-announces its prefix; the physical link
          stays up as transport (the paper's pulse model) *)
  | Link_state
      (** the (isp, origin) link itself fails and recovers; BGP session
          reset semantics apply (implicit withdrawals, full-table
          re-advertisement) *)

type probe =
  | No_probe
  | At_distance of int
      (** trace penalties at the first router whose hop distance from the
          origin equals the given value (the paper's Figure 7 uses 7) *)
  | Pairs of (int * int) list  (** explicit (router, peer) pairs *)

(** Additional churn scheduled alongside the origin stub's pulse train.
    Workload events use prefixes above the background range
    ([background_prefixes + 1] and up) and are scheduled relative to the
    flap start, so they compose with (and default to replacing — run with
    [pulses = 0]) the single-origin pulse train. *)
type workload =
  | Pulses_only  (** the default: only the origin stub flaps *)
  | Replay of Trace.t
      (** replay a recorded update trace; prefixes whose first event is a
          withdrawal are pre-originated during the settle phase *)
  | Flappers of { count : int; flaps : int; mean_gap : float; alpha : float; seed : int }
      (** generated heavy-tailed multi-origin load — shorthand for
          [Replay (Trace.flappers ...)] with the flapper prefix block
          starting right after the background prefixes; kept symbolic so
          sweeps and journals carry five scalars instead of a 100k-event
          trace *)

type t = {
  name : string;
  topology : topology;
  policy : policy_kind;
  config : Rfd_bgp.Config.t;  (** damping setup lives in here *)
  isp : [ `Node of int | `Random ];
      (** which node the flapping origin stub attaches to *)
  pulses : int;
  flap_interval : float;  (** seconds between consecutive flap events *)
  pattern : Pulse.pattern option;
      (** when set, overrides [pulses]/[flap_interval] with an arbitrary
          flap pattern *)
  mechanism : mechanism;
  background_prefixes : int;
      (** stable prefixes originated from deterministically sampled nodes
          before the flap phase — gives routers a populated multi-prefix
          RIB so per-prefix damping isolation is exercised at scale *)
  probe : probe;
  settle_gap : float;
      (** idle time inserted between initial convergence and the first flap *)
  faults : Rfd_faults.Fault_plan.t option;
      (** fault-injection plan, installed by {!Runner.run} with the flap
          start as its time origin; [None] (and trivial plans) leave the
          run bit-identical to a fault-free one *)
  workload : workload;
      (** multi-origin churn scheduled with the flap start as its time
          origin; [Pulses_only] leaves the run bit-identical to a
          workload-free one *)
}

val make :
  ?name:string ->
  ?policy:policy_kind ->
  ?config:Rfd_bgp.Config.t ->
  ?isp:[ `Node of int | `Random ] ->
  ?pulses:int ->
  ?flap_interval:float ->
  ?pattern:Pulse.pattern ->
  ?mechanism:mechanism ->
  ?background_prefixes:int ->
  ?probe:probe ->
  ?settle_gap:float ->
  ?faults:Rfd_faults.Fault_plan.t ->
  ?workload:workload ->
  topology ->
  t
(** Defaults: announce-all policy, {!Rfd_bgp.Config.default} (no damping),
    isp at node 0, one pulse, 60 s interval, origin-update flaps, no probe,
    10 s settle gap, no faults.

    Raises [Invalid_argument "Scenario.make: ..."] eagerly — at the call
    site that wrote the bad value — on a negative [pulses] or
    [background_prefixes], a non-positive or non-finite [flap_interval]
    or [settle_gap], an [isp] node outside the topology's node range, a
    topology whose shape {!validate} would reject (mesh under 3x3,
    [Internet] with [m < 1 || m >= nodes], an empty custom graph), or an
    invalid [workload] (bad flapper parameters; a replay trace that fails
    {!Trace.validate}, references an out-of-range origin, or collides with
    the background prefix range), or a largest prefix id (the background
    count, the last flapper prefix or the trace's largest) above
    {!max_prefix_id}. Config/pattern/fault problems are still
    reported by {!validate} (and by {!Runner.run}), so records built by
    hand or via [{ s with ... }] updates are checked too. *)

val max_prefix_id : int
(** [2{^20}]: the largest prefix id a scenario may name. A router keeps a
    dense RIB slot for every id up to the largest it sees, so a larger id
    is refused (the message says "exceeds the prefix id cap 1048576")
    before any network is built. It is above the daemon's largest
    admissible id, and below [2{^31}], the prefix field of a timer key. *)

val with_pulses : t -> int -> t
val paper_mesh : topology
(** [Mesh {rows = 10; cols = 10}] — the evaluation's 100-node mesh. *)

val paper_internet : topology
(** [Internet {nodes = 100; m = 2}]. *)

val paper_internet_208 : topology
(** [Internet {nodes = 208; m = 2}] — the Section 7 policy experiment. *)

val validate : t -> (unit, string) result
(** Every check {!make} makes, plus the config, pulse pattern, fault plan
    and workload checks a record built by hand needs. It also refuses a
    flap-phase event the lockstep engine could never pass: the settle gap
    plus the last offset of the pulse pattern, of the replayed or
    generated flapper trace, or of the fault plan, when adding the link
    delay to it leaves it unchanged (the message says it "cannot
    advance"). *)

val pulse_pattern : t -> Pulse.pattern
(** The flap train: [pattern], or the periodic [pulses] x [flap_interval]
    train when it is [None]. *)

val workload_trace : t -> Trace.t option
(** The workload as a concrete trace: a replay's own, or the {!Trace.flappers}
    trace a [Flappers] workload generates (origins index base-topology
    nodes, prefixes start after the background range). *)

val build_graph : t -> Rfd_topology.Graph.t * Rfd_engine.Rng.t
(** The graph a run of the scenario simulates before {!Runner.run}
    attaches the origin stub: a [Custom] graph as it is, a [Mesh] built,
    an [Internet] graph drawn from the first split of the config seed's
    RNG stream. Also returns that stream past the split, for the run's
    later draws. {!Runner.run} and {!Sweep.materialize} both build their
    graph here, so a materialized scenario runs bit-identically. *)

val pp : Format.formatter -> t -> unit

val topology_summary : topology -> string
(** Compact one-token description — ["mesh:10x10"], ["internet:100,2"],
    ["custom:16n,24e"] — for embedding in per-point failure reports, where
    {!pp}'s full rendering (which expands custom graphs) would be noise. *)
