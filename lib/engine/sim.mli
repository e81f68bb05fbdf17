(** Discrete-event simulation core.

    A simulator owns a virtual clock and a priority queue of pending events.
    Events scheduled for the same instant execute in scheduling (FIFO) order,
    which keeps runs deterministic. Event actions receive the simulator and
    may schedule or cancel further events.

    The queue is a binary heap held as three columns — an unboxed float
    array of times, the scheduling order, and an int tag — so a pending
    event owns no heap block. A tag names a {e channel} and an int argument:
    {!post} queues a call of a channel's handler without allocating, which
    is how the network puts messages on the wire and arms its routers'
    timers. Closure events ({!schedule_at}, {!schedule}) are channel 0,
    whose argument is a slot in a closure table with a free list. A
    pending closure event costs six words plus its closure; a pending post
    costs three. A post is cancelled by {!retract}ing it.

    This is the substrate replacing SSFNet's event core in the paper's
    experiments. *)

type t

type event_id
(** Handle to a scheduled closure event, usable for cancellation: an
    immediate value carrying the event's closure-table slot and the slot's
    generation. A handle is {e stale} once its event has run or been
    cancelled — its slot may already hold a newer event, which the stale
    handle never touches. A handle means something only to the simulator
    that issued it. *)

val no_event : event_id
(** A handle that never refers to a pending event: {!cancel} ignores it and
    {!is_pending} is [false]. A placeholder for handle fields whose event
    is not scheduled yet. *)

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
(** Cancel a pending event and release its closure at once. Cancelling
    through a stale handle (the event already ran or was cancelled) is a
    no-op. *)

val is_pending : t -> event_id -> bool
(** [true] while the event is scheduled and not yet executed or cancelled;
    [false] for every stale handle. *)

type channel
(** A handler registered with {!channel}. *)

val channel : t -> (t -> int -> unit) -> channel
(** [channel sim f] registers [f] as the handler of a new channel: every
    event {!post}ed on it runs [f sim arg]. A simulator has at most 255
    channels; registering more raises [Invalid_argument]. *)

val max_arg : int
(** [2{^54} - 1], the largest argument a post carries. *)

val post : t -> channel -> time:float -> int -> unit
(** [post sim ch ~time arg] queues [arg] for [ch]'s handler at [time],
    without allocating. Posts draw their scheduling order from the same
    counter as {!schedule_at}, so all events pop in (time, scheduling
    order). Raises [Invalid_argument] on a NaN time, a time in the past,
    an [arg] outside [0, 2{^54} - 1], or a channel number this simulator
    has not registered. Like a handle, a channel means something only to
    the simulator that issued it. *)

val retract : t -> channel -> int -> unit
(** [retract sim ch arg] cancels the earliest pending post of [arg] on
    [ch], in (time, scheduling order): it never runs, and it leaves
    {!pending} at once and counts in {!dead_count} until its heap slot is
    dropped, exactly like a {!cancel}led closure event. Posts of one
    argument are told apart only by that order, so a caller that re-posts
    an argument while an earlier post of it is retracted must post the
    new one no earlier in (time, order) — which any later post at the same
    or a later time is. The caller guarantees that such a live post is
    pending; retracting one that is not corrupts the counts. Raises
    [Invalid_argument] like {!post} on a bad [arg] or channel. *)

val pending : t -> int
(** Number of live (non-cancelled) pending events. *)

(** {2 Heap observability}

    The event queue deletes lazily: a cancelled event or retracted post
    keeps its heap slot until it surfaces at the root — or until a
    compaction pass reclaims it.
    Compaction runs automatically when more than half the occupied slots are
    dead (and the heap holds at least 64 events); it preserves the exact
    (time, scheduling-order) pop sequence. *)

val heap_size : t -> int
(** Occupied heap slots right now, live plus dead. *)

val dead_count : t -> int
(** Cancelled events and retracted posts still occupying heap slots
    ([heap_size - dead_count] live events are heap-resident). A cancelled
    event's closure is released at once; only its three heap words and its
    closure-table slot wait for the slot to be dropped. *)

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
(** Number of event actions executed so far (excludes cancelled events and
    retracted posts). *)

val closure_events : t -> int
(** The closure events (channel 0) among {!events_executed}. *)

val channel_events : t -> channel -> int
(** The events of one channel among {!events_executed}. The simulator
    counts every executed event by channel with one array increment. *)

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
