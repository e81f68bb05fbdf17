(** Content-addressed result store: journal on disk, bounded LRU in RAM.

    The store is the daemon's single source of truth for finished work.
    Keys are {!Rfd_experiment.Journal.job_key} digests; values are
    {!Rfd_experiment.Journal.outcome}s. Durability comes entirely from
    the PR 5 journal format — every {!put} is one fsync'd append — so a
    [kill -9] loses nothing but in-flight work: on restart {!open_}
    replays the journal (torn tails and corrupt lines skipped, newest
    line per key wins) and every previously answered key is served again,
    bit-identically, because the payload is the marshalled result itself.

    Memory stays bounded: only an LRU of at most [cache] decoded outcomes
    is resident. Everything else is re-read on demand straight from its
    recorded byte offset in the journal (one [lseek]+[read], digest
    re-verified) — a cache eviction can cost a disk read, never a
    re-simulation.

    All operations are serialized by an internal mutex: the accept loop
    reads while the executor appends. *)

type t

val open_ : ?cache:int -> string -> t
(** Open (creating if absent) the journal at the given path and index
    it. [cache] bounds the resident decoded outcomes (default 1024; 0
    disables residency entirely). A trailing torn line — the signature
    of a [kill -9] mid-append — is truncated away so subsequent appends
    start on a clean boundary. Raises [Failure] if the file exists but
    is not an [rfd-journal/3] journal. *)

val find : t -> string -> Rfd_experiment.Journal.outcome option
(** LRU first, then the journal by stored offset. A disk line whose
    digest no longer verifies (external corruption) is treated as
    absent. *)

val mem : t -> string -> bool
(** Index-only: no disk read, no LRU promotion. *)

val put : t -> key:string -> Rfd_experiment.Journal.outcome -> unit
(** Append one fsync'd journal line, index it, and make it resident.
    Durable before it returns. *)

val entries : t -> int
(** Distinct keys on disk (the content-addressed population). *)

val resident : t -> int
(** Outcomes currently decoded in the LRU ([<= cache]). *)

val disk_reads : t -> int
(** LRU misses served by re-reading the journal — the observable cost
    of the memory bound. *)

val close : t -> unit
