(** Deterministic cross-partition mailboxes for conservative parallel
    simulation.

    One FIFO queue per (src, dst) partition pair. Rows are single-writer:
    during an epoch, partition [p]'s domain may post only with [~src:p],
    and nothing reads until the barrier — the epoch's end, reported under
    {!Par_sim}'s lock, establishes the happens-before edge, so no locking
    is needed here. {!drain} empties every queue on the coordinating
    domain in a fixed (dst ascending, src ascending, post order) sequence.
    The order of the receiving simulator's events does not depend on it:
    each message carries its delivery timestamp, and the simulator orders
    same-instant events by what they are ({!Sim.post}). *)

type 'msg t

val create : parts:int -> 'msg t
(** Raises [Invalid_argument] when [parts < 1]. *)

val parts : 'msg t -> int

val post : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a message from partition [src] to partition [dst]. Only the
    domain running partition [src] may call this during an epoch. Raises
    [Invalid_argument] on an out-of-range partition. *)

val pending : 'msg t -> int
(** Messages currently buffered (all pairs). Barrier-time use only. *)

val drain : 'msg t -> deliver:(dst:int -> 'msg -> unit) -> int
(** Empty every queue in the fixed (dst, src, post order) sequence, calling
    [deliver] for each message; returns the number delivered. Barrier-time
    use only. *)
