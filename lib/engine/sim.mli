(** Discrete-event simulation core.

    A simulator owns a virtual clock and a priority queue of pending events.
    Events scheduled for the same instant execute in scheduling (FIFO) order,
    which keeps runs deterministic. Event actions receive the simulator and
    may schedule or cancel further events.

    This is the substrate replacing SSFNet's event core in the paper's
    experiments. *)

type t

type event_id
(** Handle to a scheduled event, usable for cancellation. *)

val create : unit -> t
(** A fresh simulator with the clock at time [0.]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule_at : t -> time:float -> (t -> unit) -> event_id
(** [schedule_at sim ~time f] runs [f sim] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past. *)

val schedule : t -> delay:float -> (t -> unit) -> event_id
(** [schedule sim ~delay f] is [schedule_at sim ~time:(now sim +. delay) f].
    Raises [Invalid_argument] on negative delay. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event. Cancelling an already-executed or
    already-cancelled event is a no-op. *)

val is_pending : t -> event_id -> bool
(** [true] while the event is scheduled and not yet executed or cancelled. *)

val pending : t -> int
(** Number of live (non-cancelled) pending events. *)

(** {2 Heap observability}

    The event queue deletes lazily: a cancelled event keeps its heap slot
    until it surfaces at the root — or until a compaction pass reclaims it.
    Compaction runs automatically when more than half the occupied slots are
    dead (and the heap holds at least 64 events); it preserves the exact
    (time, scheduling-order) pop sequence. *)

val heap_size : t -> int
(** Occupied heap slots right now, live plus dead. *)

val dead_count : t -> int
(** Cancelled events still occupying heap slots ([heap_size - dead_count]
    live events are heap-resident). *)

val max_heap_size : t -> int
(** High-water mark of {!heap_size} over the simulator's lifetime — the
    peak memory residency of the event queue. *)

val compactions : t -> int
(** Number of compaction passes performed so far. *)

val next_time : t -> float option
(** Time of the earliest live pending event, if any. *)

val step : t -> bool
(** Execute the next event. Returns [false] when no live event remains. *)

val run : ?until:float -> t -> unit
(** Execute events in order until the queue is empty, or — when [until] is
    given — until the next event lies strictly beyond [until], in which case
    the clock is advanced to [until]. *)

val events_executed : t -> int
(** Number of event actions executed so far (excludes cancelled events). *)

(** {2 Conservative parallel-simulation primitives}

    Building blocks for lockstep-epoch execution over several simulators
    (see {!Par_sim}): each partition runs its local events up to a shared
    safe horizon, then all partitions synchronise at a barrier. *)

val run_before : ?until:float -> horizon:float -> t -> unit
(** [run_before ~horizon sim] executes every event with time strictly below
    [horizon] — including events scheduled during the pass that still land
    inside the window. With [until], events beyond it are additionally left
    unexecuted (an inclusive cap). Unlike {!run}[ ~until], the clock stays
    at the last executed event. Raises [Invalid_argument] on NaN bounds. *)

val advance_clock : t -> time:float -> unit
(** [advance_clock sim ~time] jumps an idle simulator's clock forward to
    [time] without executing anything; a no-op when [time <= now]. Raises
    [Invalid_argument] if a pending event lies before [time] (the jump
    would make that event's timestamp lie in the past). *)

type repeating
(** Handle to a periodic task started with {!every}. *)

val every : t -> interval:float -> ?start:float -> (t -> bool) -> repeating
(** [every sim ~interval f] runs [f] at [start] (default [now + interval])
    and then every [interval] seconds for as long as [f] returns [true].
    Useful for periodic gauges. Raises [Invalid_argument] on a non-positive
    interval, or on a [start] that lies in the past — the error names both
    the start and the interval, rather than surfacing later as an opaque
    [Sim.schedule_at] failure. *)

val stop : t -> repeating -> unit
(** Cancel the pending occurrence and all future ones. Idempotent. *)
