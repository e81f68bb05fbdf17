(** Conservative lockstep-epoch execution over several simulators.

    All partitions share one global epoch: every barrier computes
    [T = min over partitions of Sim.next_time], then each partition
    executes its local events in [T, T + lookahead) (on the given
    {!Pool}), and cross-partition messages produced during the epoch are
    exchanged at the next barrier. Safety requires that any event one
    partition schedules into another lies at least [lookahead] beyond the
    sending event — for the BGP network this is the minimum link delay.

    Under that contract, each partition's local execution order equals its
    order in the equivalent single-simulator run, and the barrier sequence
    itself (the T values) is independent of the partition count — which is
    what makes budget verdicts and event counts partition-invariant. *)

val lockstep :
  pool:Pool.t ->
  lookahead:float ->
  ?until:float ->
  ?max_events:int ->
  executed:(unit -> int) ->
  exchange:(unit -> unit) ->
  Sim.t array ->
  [ `Drained | `Horizon | `Budget ]
(** [lockstep ~pool ~lookahead ~executed ~exchange sims] runs epochs until
    a verdict:

    - [`Drained]: no partition has pending events and [exchange] produced
      none — global quiescence.
    - [`Horizon]: the globally next event lies strictly beyond [until]
      (events at exactly [until] still run).
    - [`Budget]: [executed ()] (the caller's corrected global event count)
      reached [max_events], checked at each barrier.

    [exchange] is called exactly once per barrier, before the verdict
    check, and must drain every cross-partition mailbox into the receiving
    simulators (it is also the caller's hook for barrier-time bookkeeping
    such as flushing observation buffers). Raises [Invalid_argument] on a
    non-positive or NaN [lookahead], NaN [until], negative [max_events],
    or an empty simulator array. *)
