(** Metric collection for the measured flap phase.

    A collector plugs into a network's {!Rfd_bgp.Hooks.t} and keeps what the
    paper's figures read: update deliveries (count and times), the
    damped-link gauge, suppression/reuse events, optional penalty traces,
    and timer balances without history. Attach a fresh collector to start
    counting from zero (e.g. after initial convergence, so only flap-induced
    traffic is measured).

    Per-event records are cells of {!Rfd_engine.Column}s: a delivery is
    one float (its time), a reuse release one float and one int (its time;
    its router, peer and noisy flag, packed). A column grows in fixed
    64 KiB chunks that are never copied, and no accessor hands one out:
    {!update_times} and {!reuse_times} copy, and {!spans} reads the columns
    in place. *)

type t

val create : ?probe_pairs:(int * int) list -> unit -> t
(** [probe_pairs] are (router, peer) RIB-In entries whose penalty evolution
    should be traced. *)

val attach : t -> Rfd_bgp.Hooks.t -> unit
(** Overwrite the hooks' fields with this collector's recorders. *)

val trim : t -> unit
(** Drop every column's and series' spare cells, once collection is over,
    so a kept or marshalled collector carries none. Only each column's
    last chunk is cut: a copy of at most 64 KiB per column. A later event
    still works. *)

val spans : t -> flap_start:float -> Phases.span list
(** {!Phases.classify} of the delivery and reuse-release time columns,
    read in place. *)

val detach : t -> t * Rfd_engine.Column.cells list
(** [detach c] splits [c] into the two parts {!Runner.result_digest}
    hashes: a copy of [c] whose columns and series keep their lengths but
    hold no cells, and [c]'s columns in a fixed order (update times, reuse
    times, reuse ids, the damped series' times and values, then each
    probed pair's times and values, pairs ascending). The copy does not
    depend on how much spare capacity [c] has, so a trimmed and an
    untrimmed collector with the same rows split alike. [c] is not
    changed. *)

val update_count : t -> int
(** Updates delivered since {!attach}. *)

val dropped_updates : t -> int
(** Updates lost to fault-injected transport loss
    ({!Rfd_bgp.Hooks.t.on_drop}); zero in fault-free runs. *)

val duplicated_updates : t -> int
(** Fault-injected duplications ({!Rfd_bgp.Hooks.t.on_duplicate}); each one
    adds one extra copy on the wire. *)

val last_update_time : t -> float option

val update_times : t -> float array
(** A fresh copy of the time of every delivered update, in delivery order
    (non-decreasing: a delivery earlier than the last raises
    [Invalid_argument]). Bin with {!Rfd_engine.Timeseries.bin_times}. *)

val damped_series : t -> Rfd_engine.Timeseries.t
(** Step series of the number of currently damped (suppressed) links, one
    sample per instant (see {!Rfd_engine.Timeseries.set_level}). *)

val damped_now : t -> int
val peak_damped : t -> int
(** Largest value of {!damped_series} (0 if never positive). *)

val suppress_events : t -> int
val reuse_events : t -> int
val noisy_reuse_events : t -> int
val peak_penalty : t -> float
val first_reuse_time : t -> float option

val reuse_times : t -> float array
(** A fresh copy of the time of every reuse-timer release (noisy or
    silent), in {!reuse_log} order, so non-decreasing. *)

val reuse_log : t -> (float * int * int * bool) list
(** Every reuse release as [(time, router, peer, noisy)], oldest first,
    built from the columns on each call. Releases at one instant are
    ordered by router, and each router's own in the order they happened,
    so the log does not depend on how different routers' same-instant
    events interleaved. *)

val penalty_trace : t -> router:int -> peer:int -> Rfd_engine.Timeseries.t option
(** Post-increment penalty samples for a probed pair. *)

val probed_pairs : t -> (int * int) list

(** {1 Oracle-state accounting}

    Running balances of the timer machinery, maintained from the MRAI and
    reuse-timer lifecycle hooks ({!Rfd_bgp.Hooks.t.on_mrai},
    [on_reuse_schedule], [on_reuse]). Only their current values are kept,
    and the times of the last MRAI and reuse-timer events, which bound
    {!Runner.result.time_to_stable} and [time_to_quiet]. The balances
    mirror {!Rfd_bgp.Oracle.counts} exactly {e provided} the collector was
    attached while the network was fully drained (as {!Runner.run} does
    between phases); attaching mid-activity starts them at zero regardless
    of outstanding work. *)

val mrai_pending_now : t -> int
(** Updates currently parked in MRAI pending queues. *)

val flush_armed_now : t -> int
(** Currently armed MRAI flush timer events. *)

val reuse_timers_now : t -> int
(** Currently outstanding damping reuse timers. *)

val mrai_queued_events : t -> int
(** Total updates that were ever parked behind an MRAI deadline. *)

val last_mrai_time : t -> float option
(** Time of the last MRAI lifecycle event of any kind — after it, the MRAI
    machinery is inert. *)

val last_timer_time : t -> float option
(** Time of the last reuse-timer arming or release — after it (and
    {!last_mrai_time}), the network can produce no further activity. *)
