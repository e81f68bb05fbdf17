(** Scenario execution.

    A run proceeds exactly like the paper's simulations: build the topology,
    attach the flapping origin stub to the ispAS node, let every node learn
    a stable route, then inject [pulses] withdrawal/announcement pairs and
    run the simulator until fully quiescent (every reuse timer fired).
    Metrics count only flap-phase traffic. *)

(** {1 Run guardrails}

    Damping interactions can keep a network busy far longer than expected —
    and a fault-injected run (loss, duplication, crash/restart churn) may
    not converge at all. A budget bounds the run so a sweep never spins
    forever: when either limit trips, the run stops where it is and
    returns a {e partial} result flagged [Budget_exceeded]. *)

type budget = {
  max_events : int option;
      (** cap on the total number of simulator events executed over the
          whole run (all phases — initial convergence included), checked at
          epoch barriers: a tripped run stops at the first barrier at or
          past the cap *)
  max_sim_time : float option;
      (** absolute virtual-time horizon (seconds); the simulation clock
          starts at [0.] *)
}

val no_budget : budget
(** Both limits off — the default: runs drain to full quiescence. *)

val budget : ?max_events:int -> ?max_sim_time:float -> unit -> budget
(** Checked constructor; raises [Invalid_argument] on non-positive limits. *)

type status =
  | Finished of Rfd_bgp.Oracle.level
      (** the event queue drained; every complete run ends [Finished Quiet] *)
  | Budget_exceeded of Rfd_bgp.Oracle.level
      (** a budget limit tripped first; the level is the oracle's verdict
          at the moment the run was cut off, and every metric in the
          result reflects only the truncated prefix of the run *)

val status_level : status -> Rfd_bgp.Oracle.level
val status_is_budget_exceeded : status -> bool

val status_to_string : status -> string
(** [Finished l] prints as {!Rfd_bgp.Oracle.level_to_string} (so existing
    [final=quiet] consumers keep working); [Budget_exceeded l] prints as
    ["budget-exceeded(" ^ level ^ ")"]. *)

val pp_status : Format.formatter -> status -> unit

type result = {
  scenario : Scenario.t;
  origin : int;  (** node id of the attached origin stub *)
  isp : int;
  num_nodes : int;  (** including the origin stub *)
  tup : float;
      (** measured initial (Tup) convergence duration: origination to last
          update of the initial propagation *)
  initial_updates : int;
      (** updates delivered during initial convergence (background
          prefixes included). Phase 1 keeps only this count and the last
          delivery time that gives [tup], not a {!Collector.t}. *)
  flap_start : float;  (** absolute sim time of the first withdrawal *)
  final_announcement : float;  (** absolute sim time of the last flap event *)
  convergence_time : float;
      (** last flap-phase update minus [final_announcement] (0. if no
          update followed the final announcement) *)
  time_to_stable : float;
      (** seconds after [final_announcement] until the network became
          permanently {e stable} per the {!Rfd_bgp.Oracle}: routing
          fixpoint reached, no messages in flight, MRAI pending queues and
          flush timers drained. Reuse timers may still be outstanding. *)
  time_to_quiet : float;
      (** seconds after [final_announcement] until the network became
          fully {e quiet}: stable and every reuse timer fired (the paper's
          converged-vs-releasing distinction; [time_to_quiet >=
          time_to_stable] always) *)
  final_status : status;
      (** [Finished Quiet] for every run driven to full quiescence;
          [Budget_exceeded _] marks a partial result *)
  message_count : int;  (** updates observed during the flap phase *)
  collector : Collector.t;
      (** the flap phase's columns, series, counts and traces, trimmed
          ({!Collector.trim}) once the run ends, so a stored or marshalled
          result carries no spare capacity; [spans] was classified from
          its delivery and release time columns in place
          ({!Collector.spans}) *)
  spans : Phases.span list;  (** four-state classification of the episode *)
  sim_events : int;
  peak_heap : int;
      (** high-water mark of the simulator's event queue over the whole
          run ({!Rfd_engine.Sim.max_heap_size}): pending events — timers,
          one delivery per directed link with messages on the wire,
          workload and administrative events — plus cancelled ones not
          yet dropped or compacted, each two heap words *)
  reuse_timer_events : int;
      (** simulator events spent on reuse scheduling
          ({!Par_net.reuse_timer_events}) — the cost centre the
          tick-wheel reuse mode collapses *)
  peak_reuse_timers : int;
      (** summed per-router peaks of heap-resident reuse-scheduling events
          ({!Rfd_bgp.Network.peak_reuse_timers}) *)
  wall_seconds : float;
      (** elapsed host time ({!Rfd_engine.Clock.wall}, monotonic) — real
          duration even when other runs execute concurrently on sibling
          domains *)
  cpu_seconds : float;
      (** process CPU time consumed while this run executed; under a
          parallel sweep this includes sibling domains' work and is only
          an upper bound on this run's own cost *)
}

val run : ?budget:budget -> ?observe:(Rfd_bgp.Network.t -> unit) -> Scenario.t -> result
(** [run ?budget ?observe s] is [fst (run_partitioned ?budget ?observe
    ~partitions:1 s)]: one engine, one partition. Raises
    [Invalid_argument] when the scenario fails validation.
    [budget] (default {!no_budget}) bounds the whole run; see {!status}.
    The scenario's fault plan, if any, is installed with the flap start as
    its time origin, and so is its workload trace (replayed or generated
    multi-origin churn; prefixes opening with a withdrawal are
    pre-originated during the settle phase, and [final_announcement]
    covers the later of the pulse train and the trace). [observe] is
    called once, after initial convergence and right after the flap-phase
    collector is attached. With one partition the network's hooks are the
    run's observation bus, so observers wrapped around them there (e.g.
    {!Recorder.transcript}) stay active for the whole measured flap
    phase. *)

val origin_prefix : Rfd_bgp.Prefix.t
(** The prefix the origin stub announces (constant across runs). *)

val result_digest : result -> string
(** Hex MD5 chain over the result with the host-timing fields
    ([wall_seconds], [cpu_seconds]) and [peak_heap] zeroed — a
    fingerprint of everything the simulation determined. Two runs of the
    same job (any [jobs] count, any partition count, first try or retry)
    must produce equal digests; the supervised sweep's journal and tests
    use this to verify bit-identity cheaply. [peak_heap] is excluded
    because it sums per-partition heap peaks, which vary with the
    partition count even when the simulation outcome is identical.

    The bytes hashed are, in order: the result marshalled without sharing
    with its collector's columns detached ({!Collector.detach}: their
    lengths stay, their cells do not), then every column's cells as
    little-endian 64-bit words. They pass through a buffer of
    {!digest_buffer_bytes} that each domain allocates once, one load at a
    time: a load starts with the 16-byte MD5 of the load before (zeros for
    the first) and is hashed when the next word would not fit, and the
    digest is the MD5 of the last load. A trimmed and an untrimmed
    collector holding the same rows therefore digest alike, and a digest
    allocates a few small values per load, never a copy of the result or
    of a column. Only a marshalled head larger than the buffer (a large
    custom topology or workload trace in the scenario) is first marshalled
    to a string. Safe to call from any domain. *)

val digest_buffer_bytes : int
(** Size of each domain's {!result_digest} buffer, and so of one load
    (64 KiB). *)

(** {1 Partitioned execution}

    {!run_partitioned} is the one run body: the topology is split across
    domains ({!Par_net}) and advanced in conservative lockstep epochs, and
    {!run} is its one-partition case. Every directed link draws transport
    randomness from its own stream, so the result is bit-identical (per
    {!result_digest}) for every [partitions] value. *)

type par_stats = {
  partitions : int;  (** effective count (clamped to the node count) *)
  cut_edges : int;  (** topology edges crossing partitions *)
  epochs : int;  (** lockstep epochs executed *)
  per_partition_events : int array;  (** raw executed events per partition *)
  events_by_kind : Rfd_bgp.Network.event_counts;
      (** [sim_events] by kind ({!Par_net.event_counts}): deliveries, MRAI
          flushes, reuse timers, wheel buckets and ops (scheduled workload
          and administrative operations), summing to [sim_events] at every
          partition count *)
  paths_interned_total : int;  (** summed per-partition path intern tables *)
}

val run_partitioned :
  ?budget:budget ->
  ?observe:(Rfd_bgp.Network.t -> unit) ->
  ?on_bus:(Rfd_bgp.Hooks.t -> unit) ->
  partitions:int ->
  Scenario.t ->
  result * par_stats
(** {!run} on [partitions] topology partitions. [observe] is called once
    per partition network (introspection of tables/graphs); [on_bus] is
    called once, just before, with the observation bus ({!Par_net.bus}) —
    attach event observers there. {!Recorder.transcript} attached there
    renders the same lines for every [partitions] value. Budget limits are
    checked at epoch barriers, so a tripped budget can overshoot its cap by
    up to one epoch (identically for every partition count). Raises
    [Invalid_argument] when the scenario fails validation or
    [partitions < 1]. *)

val pp_result : Format.formatter -> result -> unit
(** One-paragraph human summary. *)
