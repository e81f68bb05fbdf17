(** Instrumentation callbacks.

    The experiment harness observes a running network exclusively through
    these hooks, keeping protocol code free of metrics concerns. All hooks
    default to no-ops; assign the fields you need. *)

(** Lifecycle of MRAI machinery: what happened to a (router, peer, prefix)
    pending slot or its flush timer. Pending-queue occupancy changes by +1
    on [Mrai_queued] and -1 on [Mrai_sent] / [Mrai_superseded] /
    [Mrai_cancelled]; armed-flush count changes by +1 on [Flush_armed] and
    -1 on [Flush_fired] / [Flush_cancelled]. The {!Oracle} counts are the
    live totals of exactly these balances. *)
type mrai_action =
  | Mrai_queued  (** an update was parked behind the MRAI deadline *)
  | Mrai_sent  (** a parked update was sent by its flush *)
  | Mrai_superseded
      (** a parked update was dropped because a newer decision made it
          moot (same state as RIB-Out, or a direct send replaced it) *)
  | Mrai_cancelled  (** a parked update was dropped by a session failure *)
  | Flush_armed  (** a flush timer event was scheduled *)
  | Flush_fired  (** a flush timer event ran *)
  | Flush_cancelled  (** a flush timer event was cancelled (session failure) *)

val mrai_action_to_string : mrai_action -> string
val pp_mrai_action : Format.formatter -> mrai_action -> unit

type t = {
  mutable on_send : time:float -> src:int -> dst:int -> Update.t -> unit;
      (** an update leaves a router *)
  mutable on_deliver : time:float -> src:int -> dst:int -> Update.t -> unit;
      (** an update reaches its neighbour (the paper's "updates observed in
          the network" counts these). The wire rebuilds it, so it equals
          ({!Update.equal}) the update {!on_send} saw, but is not the same
          block. *)
  mutable on_drop : time:float -> src:int -> dst:int -> Update.t -> unit;
      (** an update was lost to injected transport loss (fault model); sends
          swallowed by a down link are {e not} reported here *)
  mutable on_duplicate : time:float -> src:int -> dst:int -> Update.t -> unit;
      (** injected duplication made the transport emit a second copy of this
          update (each copy is still subject to loss and delivery hooks) *)
  mutable on_suppress : time:float -> router:int -> peer:int -> prefix:Prefix.t -> unit;
      (** a RIB-In entry crossed the cut-off threshold *)
  mutable on_reuse :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> noisy:bool -> unit;
      (** a reuse timer fired and the entry was released; [noisy] when the
          release changed the best path and propagated updates *)
  mutable on_reuse_schedule :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> at:float -> unit;
      (** a reuse timer was armed for a newly suppressed entry, due to fire
          at absolute time [at]; it stays outstanding (re-arming itself as
          recharging postpones reuse) until {!on_reuse} reports its release *)
  mutable on_penalty :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> penalty:float -> unit;
      (** the penalty was incremented (fires after the increment) *)
  mutable on_best_change :
    time:float -> router:int -> prefix:Prefix.t -> best:Route.t option -> unit;
  mutable on_mrai :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> mrai_action -> unit;
      (** MRAI pending-queue / flush-timer lifecycle, see {!mrai_action} *)
}

val create : unit -> t
(** All no-ops. *)

(** {1 Events as data}

    One value per callback, for observers that keep, reorder or print
    events rather than react to them: the partition merge and the
    transcript ({!Rfd_experiment.Recorder}). This module is the only place
    that maps callbacks to events and back, so a new hook is added here
    once. *)

type event =
  | Send of { src : int; dst : int; update : Update.t }
  | Deliver of { src : int; dst : int; update : Update.t }
  | Drop of { src : int; dst : int; update : Update.t }
  | Duplicate of { src : int; dst : int; update : Update.t }
  | Suppress of { router : int; peer : int; prefix : Prefix.t }
  | Reuse of { router : int; peer : int; prefix : Prefix.t; noisy : bool }
  | Reuse_schedule of { router : int; peer : int; prefix : Prefix.t; at : float }
  | Penalty of { router : int; peer : int; prefix : Prefix.t; penalty : float }
  | Best_change of { router : int; prefix : Prefix.t; best : Route.t option }
  | Mrai of { router : int; peer : int; prefix : Prefix.t; action : mrai_action }

val owner : event -> int
(** The router whose execution emits the event: the sender for a send and
    its drop/duplicate outcomes (decided at send time), the receiver for a
    delivery, the router for every router-scoped event. An owner's events
    reach the observation bus in the same order at any partition count. *)

val tap : t -> (time:float -> event -> unit) -> unit
(** [tap hooks f] wraps every callback so it calls [f] with its event,
    then the callback installed before. *)

val emit : t -> time:float -> event -> unit
(** Call the callback matching the event. *)

val pp_event : time:float -> Format.formatter -> event -> unit
(** One transcript line, without a newline: [[time] topic message]. Topics:
    [send], [deliver], [drop], [duplicate], [suppress], [reuse] (releases
    and armed timers), [penalty], [best], [mrai]. *)
