(** Declarative fault-injection plans.

    A plan describes everything that can go wrong during a run, as pure
    data: scheduled link fail/recover events on arbitrary edges, scheduled
    router crash/restart events, seeded-random background link flaps, and
    per-directed-link message loss / duplication probabilities.

    Plans are deterministic by construction: the random parts are expanded
    from the plan's own [seed] (see {!expand}), and the loss/duplication
    sampling inside {!Rfd_bgp.Network} draws from a seed-derived stream —
    the same [(scenario, plan, seed)] triple always produces bit-identical
    results, on any number of worker domains.

    {!Rfd_experiment.Injector.install} applies a plan to a live network. *)

type link = int * int
(** An undirected edge, in either orientation. *)

type link_event = { at : float; link : link; action : [ `Fail | `Recover ] }
(** [at] is relative to the installation start time. *)

type router_event = { at : float; node : int; action : [ `Crash | `Restart ] }

type degradation = { loss : float; duplication : float }
(** Per-message probabilities on a directed link: each sent message is
    duplicated with probability [duplication]; each copy is then lost with
    probability [loss]. Delivered copies keep per-link FIFO order. *)

val perfect : degradation
(** [{ loss = 0.; duplication = 0. }]. *)

type random_flaps = {
  cycles : int;  (** fail/recover cycles to generate *)
  window : float;
      (** failures start uniformly in [\[0, window)] after the start time *)
  down_mean : float;  (** mean outage duration (exponential) *)
  candidates : link list;
      (** eligible edges; [[]] means "every link of the target network"
          (resolved at {!expand}/install time) *)
}
(** Seeded-random background link flaps — the churn regime of BGP beacon
    and RIPE RIS studies (Mao et al., Labovitz et al.), as opposed to the
    single scripted origin flap of the paper's pulse train. *)

type t = {
  name : string;
  seed : int;  (** drives the random parts; independent of the scenario seed *)
  link_events : link_event list;
  router_events : router_event list;
  random_flaps : random_flaps option;
  degradation : degradation;  (** default for every directed link *)
  per_link_degradation : ((int * int) * degradation) list;
      (** directed [(src, dst)] overrides, applied after the default *)
}

val none : t
(** The empty plan: no events, no degradation. *)

val make :
  ?name:string ->
  ?seed:int ->
  ?link_events:link_event list ->
  ?router_events:router_event list ->
  ?random_flaps:random_flaps ->
  ?degradation:degradation ->
  ?per_link_degradation:((int * int) * degradation) list ->
  unit ->
  t

val is_trivial : t -> bool
(** [true] when installing the plan would be a no-op. *)

val validate : t -> (unit, string) result
(** Structural checks: probabilities in [0, 1], non-negative times and node
    ids, no self-loop links, positive and finite window/down_mean when
    random flaps are requested. Link/node {e range} checks against a
    concrete topology happen at install time. *)

(** {1 Expansion} *)

type event = Link of link_event | Router of router_event

val event_time : event -> float

val expand : ?candidates:link list -> t -> event list
(** Expand the plan into a concrete timeline, sorted by time (stable:
    simultaneous events keep plan order, and a generated cycle's [`Fail]
    precedes its [`Recover]). Random flap cycles are generated from the
    plan's [seed] alone, so expansion is deterministic; [candidates]
    supplies the eligible-edge pool when the plan's own candidate list is
    empty. Raises [Invalid_argument] when the plan fails {!validate} or
    when random flaps are requested and no candidate links are available. *)

val last_time : t -> float
(** The latest event time of {!expand}'s timeline ([0.] when there is
    none). Random flap times depend on the plan's seed alone, so this
    needs no topology even when the plan names no candidate links. *)

(** {1 Printing} *)

val pp_degradation : Format.formatter -> degradation -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
