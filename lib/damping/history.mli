(** Bounded first-in-first-out membership history.

    The RCN damping filter keeps, per peer, "a recent history of root causes
    that have been received from that peer" and only increments the penalty
    for unseen root causes. This module is the generic container: a set with
    FIFO eviction once [capacity] distinct elements are held. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 128. Raises [Invalid_argument] when not positive.
    A fresh history is small whatever its capacity; its table grows with
    the elements it holds. Elements are compared with structural
    equality/hashing, so keys must not contain functions or cyclic
    values. *)

val capacity : 'a t -> int
val length : 'a t -> int
val mem : 'a t -> 'a -> bool

val add : 'a t -> 'a -> [ `Added | `Already_present ]
(** Insert an element, evicting the oldest element when full. Re-adding a
    present element refreshes nothing (FIFO, not LRU) and reports
    [`Already_present]. *)

val observe : 'a t -> 'a -> [ `New | `Seen ]
(** [observe t x] is the filter primitive: report whether [x] was already
    present, adding it when new. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Oldest first. *)
