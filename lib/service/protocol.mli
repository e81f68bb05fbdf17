(** The line-framed [rfd-svc/1] wire protocol.

    Everything on the wire is one line of UTF-8 text ending in ['\n']
    (a trailing ['\r'] is tolerated), always starting with the protocol
    token so every line is self-describing:

    {v rfd-svc/1 query seed=42 pulses=3 topology=mesh:10x10 ...
rfd-svc/1 stats
rfd-svc/1 ping v}

    and in the other direction

    {v rfd-svc/1 ok hit {"schema":"rfd-svc/1","key":...}
rfd-svc/1 ok miss {...}
rfd-svc/1 ok stats {...}
rfd-svc/1 ok pong
rfd-svc/1 error overloaded {"schema":"rfd-svc/1","code":"overloaded",...} v}

    The [hit]/[miss] marker lives in the {e framing}, never in the JSON
    body: the body is a pure function of the stored outcome, which is
    what makes a cache hit byte-identical to the miss that populated it.

    This module is pure (parsing, rendering, and spec-to-scenario
    elaboration); all I/O lives in {!Server} and {!Client}. *)

val version : string
(** ["rfd-svc/1"] — the leading token of every request and response. *)

(** {1 Query specifications}

    A spec names a scenario by value. It is shared with the CLI:
    [rfd-sim run], [sweep], [replay] and [query] parse their flags into
    one, and build their scenario with {!scenario_of_spec}, so a CLI run
    and a daemon query with the same flags have the same result digest
    and the same job key. What the wire cannot carry — edge-list file
    topologies, fault injection, probes, budgets and replay traces —
    stays CLI-only; a served result is the unbudgeted ground truth. The
    server keys a spec with {!resolve_spec}: equal specs always map to
    equal cache keys, across connections, restarts and machines. *)

type topo =
  | Mesh of { rows : int; cols : int }
  | Internet of { nodes : int; m : int }
  | Line of int
  | Ring of int
  | Clique of int

type damping = No_damping | Cisco | Juniper

type spec = {
  topology : topo;
  damping : damping;
  mode : Rfd_bgp.Config.damping_mode;
  policy : Rfd_experiment.Scenario.policy_kind;
  pulses : int;
  interval : float;  (** seconds between flap events *)
  mrai : float;
  seed : int;
  isp : int;  (** node the origin attaches to; [-1] = seeded-random *)
  table_hint : int;  (** {!Rfd_bgp.Config.prefix_table_hint} *)
  reuse_tick : float option;  (** [Some t] = RFC 2439 tick-wheel reuse *)
  background : int;  (** steady background prefixes announced before the flap *)
  flappers : int;  (** concurrently flapping extra prefixes; [0] = none *)
  flaps : int;  (** withdraw/announce pairs per flapper *)
  flap_gap : float;  (** mean inter-flap gap (seconds, Pareto-distributed) *)
  flap_alpha : float;  (** Pareto tail exponent of the inter-flap gaps *)
  flap_seed : int;  (** workload seed, independent of [seed] *)
}

val default_spec : spec
(** Paper defaults, matching [rfd-sim run] with no flags: 10×10 mesh,
    Cisco damping, plain mode, shortest-path policy, 1 pulse at 60 s,
    MRAI 30 s, seed 42, isp node 0, no background prefixes or flappers. *)

val max_nodes : int
(** Admission cap on the requested topology size:
    {!Rfd_topology.Edge_list.max_nodes}, 100_000 nodes, the cap an
    edge-list file meets too. A query above it is rejected as [invalid]
    before any allocation — a misbehaving client must not be able to OOM
    the daemon with [internet:10000000]. *)

val max_pulses : int
(** Admission cap on the pulse count (10_000), same rationale. *)

val max_background : int
(** Admission cap on the background prefix count (200_000). *)

val max_flappers : int
(** Admission cap on the flapper count (10_000). *)

val max_workload_events : int
(** Admission cap on the total recorded workload size:
    [flappers * flaps * 2] events (1_000_000) — bounds both the trace
    expansion and the simulated update load of one admitted query. *)

val topo_to_string : topo -> string
val topo_of_string : string -> (topo, string) result

val scenario_of_spec : spec -> (Rfd_experiment.Scenario.t, string) result
(** Elaborate a spec into the scenario its run would execute, reusing
    {!Rfd_experiment.Scenario.make}'s eager validation (plus the
    {!max_nodes}/{!max_pulses} admission caps): a malformed or abusive
    query is a clean [Error] here, never a crash (or an allocation)
    later. The returned scenario still carries a [Mesh]/[Internet]
    topology; resolve it with {!Rfd_experiment.Sweep.materialize} before
    keying. *)

val resolve_spec :
  memo:(int * Rfd_experiment.Scenario.topology, Rfd_topology.Graph.t) Hashtbl.t ->
  spec ->
  (Rfd_experiment.Scenario.t * string, string) result
(** The daemon's keying path: {!scenario_of_spec}, then
    {!Rfd_experiment.Sweep.materialize} through [memo] (emptied once it
    holds more than 64 graphs), then {!Rfd_experiment.Journal.job_key}.
    The memo holds one graph per mesh shape, whatever the seed, and one
    per (shape, seed) of a BA topology. Returns the resolved scenario and
    its key. *)

(** {1 Requests} *)

type request = Query of spec | Stats | Ping

val render_request : request -> string
(** One full line, ['\n'] included. Rendering and {!parse_request} read
    one field table. Spec fields are written in a fixed order, with
    round-trip float formatting. [reuse-tick] and the workload fields
    ([background], [flappers], [flaps], [flap-gap], [flap-alpha],
    [flap-seed]) are omitted at their absent/zero defaults, so
    pre-workload query lines stay byte-stable. *)

val parse_request : string -> (request, string) result
(** Parse one request line (no trailing newline). Unknown commands,
    unknown or duplicate [key=value] fields, and unparsable values are
    [Error]s with messages naming the offending token. Missing spec
    fields default to {!default_spec} — a hand-typed
    [rfd-svc/1 query pulses=3] is a valid smoke test. *)

(** {1 Responses} *)

type error_code =
  | Invalid
  | Overloaded
  | Crashed
  | Timeout
  | Shutting_down
  | Wrong_shard
      (** shard admission: the key's owner is another daemon in the
          fleet — retry there (the fleet client does this itself) *)

val error_code_to_string : error_code -> string
(** ["invalid"], ["overloaded"], ["crashed"], ["timeout"],
    ["shutting-down"], ["wrong-shard"]. *)

type response =
  | Result of { cached : bool; body : string }
      (** [ok hit]/[ok miss] — [body] is the minified result JSON *)
  | Stats of string  (** [ok stats] — [body] is the server's stats JSON *)
  | Pong
  | Refused of { code : error_code; body : string }
      (** [error <code>] — [body] is the minified error JSON *)

val render_response : response -> string
(** One full line, ['\n'] included. *)

val parse_response : string -> (response, string) result

val result_body : key:string -> Rfd_experiment.Runner.result -> string
(** The minified JSON body served for a finished run: cache key,
    {!Rfd_experiment.Runner.result_digest}, and every deterministic
    headline metric (convergence/stable/quiet times, message and event
    counts, final status). Host timings are deliberately excluded, so
    the body is a pure function of the simulation outcome — re-running
    the daemon from an empty journal reproduces it byte for byte. *)

val error_body : ?key:string -> code:error_code -> message:string -> unit -> string

val outcome_response :
  key:string -> cached:bool -> Rfd_experiment.Journal.outcome -> response
(** The response served for a stored terminal outcome: a
    {!Rfd_experiment.Journal.outcome.Result} becomes {!Result} (with
    {!result_body}), a journalled crash or watchdog timeout becomes the
    corresponding {!Refused}. [cached] only affects the [hit]/[miss]
    framing, never the body. *)
