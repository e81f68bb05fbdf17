(** Conservative lockstep-epoch execution over several simulators.

    All partitions share one global epoch: every barrier computes
    [T = min over partitions of Sim.next_time], then each partition
    executes its local events in [T, T + lookahead), and cross-partition
    messages produced during the epoch are exchanged at the next barrier.
    Safety requires that any event one partition schedules into another
    lies at least [lookahead] beyond the sending event — for the BGP
    network this is the minimum link delay.

    Under that contract, each partition's local execution order equals its
    order in the equivalent single-simulator run, and the barrier sequence
    itself (the T values) is independent of the partition count — which is
    what makes budget verdicts and event counts partition-invariant. *)

type t
(** A set of simulators and the epoch workers that advance them. The
    calling domain runs partition 0; every further partition has a worker
    domain that lives until {!shutdown}. One partition spawns no domain:
    its epochs run inline in the caller. *)

val create : Sim.t array -> t
(** [create sims] spawns [Array.length sims - 1] worker domains. Raises
    [Invalid_argument] on an empty array. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent, and safe after an epoch that
    raised. {!lockstep} on a shut-down [t] raises [Invalid_argument]. *)

val lockstep :
  lookahead:float ->
  ?until:float ->
  ?max_events:int ->
  executed:(unit -> int) ->
  exchange:(unit -> unit) ->
  t ->
  [ `Drained | `Horizon | `Budget ]
(** [lockstep ~lookahead ~executed ~exchange t] runs epochs until a
    verdict:

    - [`Drained]: no partition has pending events and [exchange] produced
      none — global quiescence.
    - [`Horizon]: the globally next event lies strictly beyond [until]
      (events at exactly [until] still run).
    - [`Budget]: [executed ()] (the caller's corrected global event count)
      reached [max_events], checked at each barrier.

    [exchange] is called exactly once per barrier, before the verdict
    check, and must drain every cross-partition mailbox into the receiving
    simulators (it is also the caller's hook for barrier-time bookkeeping
    such as flushing observation buffers). If an event raises, the epoch
    still finishes in every other partition; then the exception of the
    lowest-numbered partition that raised is re-raised with its backtrace.
    Raises [Invalid_argument] on a non-positive or NaN [lookahead], NaN
    [until] or negative [max_events], and when the globally next event time
    is so large (or infinite) that adding [lookahead] does not exceed it:
    no epoch could make progress there. *)
