(** Canonical observation order: the partition merge and the transcript.

    With several partitions, each partition's {!Rfd_bgp.Hooks} bus is
    pointed at a recorder, which buffers its {!Rfd_bgp.Hooks.event}s raw;
    at every epoch barrier {!drain_replay} merges the partitions' buffers,
    sorts by the total key (time, {!Rfd_bgp.Hooks.owner}, per-owner
    sequence) and replays into one observer bus. An owner's events keep
    their relative order under any partitioning, so the key — and
    therefore the replayed stream — is independent of the partition
    count.

    With one partition the bus is the network's own hooks, in execution
    order. {!transcript} sorts each instant by owner itself, so it prints
    the same lines at every partition count. *)

type t

val create : nodes:int -> t
(** One recorder per partition; [nodes] is the {e global} node count (the
    owner-id space). Raises [Invalid_argument] when [nodes < 1]. *)

val attach : t -> Rfd_bgp.Hooks.t -> unit
(** {!Rfd_bgp.Hooks.tap} the bus, buffering every event under its owner. *)

val drain_replay : t list -> Rfd_bgp.Hooks.t -> unit
(** Merge and clear every recorder's buffer, replaying the records into
    [bus] in canonical order. Must be called at a barrier: every buffered
    record then predates the next global event, which keeps the stream
    sorted across successive calls. *)

val transcript : limit:int -> Rfd_bgp.Hooks.t -> unit -> string list
(** [transcript ~limit bus] taps [bus] and returns a function giving the
    first [limit] transcript lines ({!Rfd_bgp.Hooks.pp_event}) seen so far.
    It holds back the current instant's events and, once time moves on,
    renders them sorted stably by owner — the canonical order at any
    partition count; calling the function renders the instant held back.
    Once [limit] lines are rendered, later events are ignored. Raises
    [Invalid_argument] when [limit < 0]. *)
