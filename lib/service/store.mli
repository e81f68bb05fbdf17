(** Content-addressed result store: journal on disk, bounded LRU in RAM.

    The store is the daemon's single source of truth for finished work.
    Keys are {!Rfd_experiment.Journal.job_key} digests; values are
    {!Rfd_experiment.Journal.outcome}s. Durability comes entirely from
    the journal — every {!put} is one fsync'd append — so a [kill -9]
    loses nothing but in-flight work: on restart {!open_} replays the
    journal and every previously answered key is served again,
    bit-identically, because the payload is the marshalled result itself.
    The store reads the journal as every other reader does, by the
    journal's one recovery rule ({!Rfd_experiment.Journal}): a strict
    prefix of the header line is an empty journal, an unterminated last
    line is a torn tail, corrupt lines are skipped and the newest line
    per key wins. Opening compacts the journal and indexes it in the same
    scan.

    Memory stays bounded: only an LRU of at most [cache] decoded outcomes
    is resident. Everything else is re-read on demand from its byte
    offset in the journal ({!Rfd_experiment.Journal.read}: one
    [lseek]+[read], digest re-verified) — a cache eviction can cost a
    disk read, never a re-simulation.

    All operations are serialized by an internal mutex: the accept loop
    reads while the executor appends. *)

type t

val open_ : ?cache:int -> string -> t
(** Compact the journal at the given path, if it exists, with
    {!Rfd_experiment.Journal.compact} — which drops corrupt and
    superseded lines and a torn tail, and leaves a journal with none of
    them as it is, inode and bytes — and index it from that one scan;
    then open it with {!Rfd_experiment.Journal.create}, which creates it
    if absent and rewrites a torn header, so appends start on a clean
    boundary. [cache] bounds the resident decoded outcomes (default 1024;
    0 disables residency entirely). Raises [Failure], leaving the file as
    it was, when the recovery rule refuses its first line. Must not run
    while another writer holds the journal open. *)

val compaction : t -> Rfd_experiment.Journal.compaction option
(** The counts of the compaction {!open_} ran ([extents] is empty: the
    index holds them), or [None] when the journal did not exist yet. *)

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
