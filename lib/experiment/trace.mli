(** Update traces: recorded (or generated) per-prefix flap schedules.

    A trace is a globally time-ordered list of announce/withdraw events,
    each naming a prefix and optionally the base-topology node that
    originates it (omitted = the scenario's attached origin stub). Traces
    replay through {!Runner.run} via the [Scenario.Replay] workload, and
    the {!flappers} generator builds heavy-tailed multi-origin load as a
    trace so generated and recorded workloads share one code path.

    The text form is MRT-like and line-oriented:

    {v
    rfd-trace/1
    # comment
    0 17 withdraw 3
    4.25 17 announce 3
    60 9 withdraw
    v}

    with whitespace-separated fields [time prefix kind [origin]]. *)

type kind = Announce | Withdraw

type event = {
  time : float;  (** seconds relative to the replay start; non-decreasing *)
  prefix : int;  (** >= 1 — prefix 0 is reserved for the measured origin prefix *)
  kind : kind;
  origin : int option;
      (** base-topology node id; [None] targets the attached origin stub *)
}

type t = event list

val header : string
(** ["rfd-trace/1"] — the mandatory first non-comment line of the text form. *)

val validate : t -> (unit, string) result
(** Scenario-independent structural checks: finite non-negative times,
    globally non-decreasing (strictly increasing per prefix), prefixes
    [>= 1], origins non-negative. Origin range against a concrete topology
    is checked by [Scenario.validate]. *)

val to_string : t -> string
(** Render the text form. [of_string (to_string t) = Ok t] for every valid
    trace (times print with enough digits to round-trip exactly). *)

val of_string : string -> (t, string) result
(** Strict parser. Errors are actionable and carry 1-based line numbers,
    e.g. ["line 3: bad event kind \"announced\" ..."]. The parsed trace is
    also {!validate}d. *)

val of_file : string -> (t, string) result
val to_file : string -> t -> unit

val last_time : t -> float
(** Time of the final event ([0.] for the empty trace). *)

val event_count : t -> int

val max_prefix : t -> int
(** Largest prefix id referenced ([0] for the empty trace). *)

val max_origin : t -> int
(** Largest explicit origin node referenced ([-1] when every event targets
    the origin stub). *)

val pre_originations : t -> (int option * int) list
(** [(origin, prefix)] for every prefix whose {e first} event is a
    withdrawal, in first-occurrence order — these prefixes were reachable
    when recording started, so a replay originates them during the settle
    phase to give the opening withdrawal a route to tear down. *)

val flappers :
  seed:int ->
  nodes:int ->
  count:int ->
  flaps:int ->
  mean_gap:float ->
  alpha:float ->
  first_prefix:int ->
  t
(** Deterministic heavy-traffic load: [count] concurrently flapping
    prefixes ([first_prefix], [first_prefix+1], …), each homed at a node
    sampled uniformly from [0..nodes-1] and flapping [flaps] times with
    heavy-tailed (Pareto with shape [alpha], scaled so the mean gap
    approaches [mean_gap]) intervals between events. Every prefix's first
    event is a withdrawal, so replay pre-originates all of them. Equal
    [seed] yields an equal trace; each flapper's schedule depends only on
    [(seed, index)]. *)

val flappers_horizon : flaps:int -> mean_gap:float -> alpha:float -> float
(** An upper bound on {!last_time} of every {!flappers} trace with these
    parameters, whatever its seed, node and flapper counts: [2 * flaps]
    times the largest gap a Pareto draw can yield. Cheap, so a caller can
    rule out a late event without generating the trace. *)

val pp : Format.formatter -> t -> unit
