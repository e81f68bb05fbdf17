(** Discrete-event simulation core.

    A simulator owns a virtual clock and a priority queue of pending events.
    Events scheduled for the same instant execute in ascending (argument,
    channel) order, whenever and in whatever order they were posted, which
    keeps runs deterministic and makes an event's place at its instant a
    function of what it is.

    There is one kind of event, the {e post}: a handler registered with
    {!channel} and an int argument. The queue is a binary heap held as
    two columns — an unboxed float array of times and an int tag packing
    the argument above the channel number — so a pending event costs two
    words and owns no heap block, and {!post} allocates nothing. Events
    pop in (time, tag) order. Handlers receive the simulator and may post
    or {!retract} further events; {!retract} is the only way to cancel
    one.

    This is the substrate replacing SSFNet's event core in the paper's
    experiments. *)

type t

val create : unit -> t
(** A fresh simulator with the clock at time [0.] and no channel. *)

val now : t -> float
(** Current virtual time in seconds. *)

type channel
(** A handler registered with {!channel}. *)

val channel : t -> (t -> int -> unit) -> channel
(** [channel sim f] registers [f] as the handler of a new channel: every
    event {!post}ed on it runs [f sim arg]. Channels are numbered from 0 in
    registration order. A simulator has at most 256 channels; registering
    more raises [Invalid_argument]. *)

val max_arg : int
(** [2{^54} - 1], the largest argument a post carries. *)

val post : t -> channel -> time:float -> int -> unit
(** [post sim ch ~time arg] queues [arg] for [ch]'s handler at [time],
    without allocating. Events pop in (time, [arg], [ch]) order: at one
    instant the smaller argument runs first, and of equal arguments the
    lower channel. Two posts equal in all three are interchangeable. Raises
    [Invalid_argument] on a NaN time, a time in the past, an [arg]
    outside [0, 2{^54} - 1], or a channel number this simulator has not
    registered. A channel means something only to the simulator that
    issued it. *)

val post_cell : t -> channel -> Float.Array.t -> int -> int -> unit
(** [post_cell sim ch times i arg] is [post sim ch ~time:(Float.Array.get
    times i) arg], with the time read in place: a caller that keeps its
    times in an unboxed column posts one without boxing it, even where
    calls across modules are not inlined. Raises like {!post}, and
    [Invalid_argument] when [i] is outside [times]. *)

val retract : t -> channel -> int -> unit
(** [retract sim ch arg] cancels the earliest pending post of [arg] on
    [ch] in time: it never runs, and it leaves {!pending} at once and
    counts in {!dead_count} until its heap slot is dropped. Posts of one
    argument are told apart only by their times, so a caller that re-posts
    an argument while an earlier post of it is retracted must post the new
    one no earlier in time; one at the same time is interchangeable with
    the retracted one. The caller guarantees that such a live post is
    pending; retracting one that is not corrupts the counts. Raises
    [Invalid_argument] like {!post} on a bad [arg] or channel. *)

val pending : t -> int
(** Number of live (non-retracted) pending events. *)

(** {2 Heap observability}

    The event queue deletes lazily: a retracted post keeps its heap slot
    until it surfaces at the root — or until a compaction pass reclaims
    it. Compaction runs automatically when more than half the occupied
    slots are dead (and the heap holds at least 64 events); it preserves
    the exact (time, tag) pop sequence. *)

val heap_size : t -> int
(** Occupied heap slots right now, live plus dead. *)

val dead_count : t -> int
(** Retracted posts still occupying heap slots ([heap_size - dead_count]
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
(** Number of events executed so far (excludes retracted posts). *)

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
