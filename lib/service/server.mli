(** The [rfd-simd] serving loop: accept, answer, schedule, survive.

    One daemon owns one Unix-domain listening socket and one result
    journal. The main (calling) domain runs a [select] loop that accepts
    connections, parses {!Protocol} request lines, answers cache hits
    straight from the {!Store}, and registers misses; a single {e
    executor} domain drains the miss queue in batches onto
    {!Rfd_engine.Supervisor.supervise} — the PR 5 machinery, unchanged —
    so every run gets a watchdog deadline, deterministic retry and
    crash-isolated workers for free. Finished outcomes are journalled
    (fsync'd) {e before} any client hears about them, so an acknowledged
    result is always durable.

    Robustness properties, each tested:

    - {b Bounded admission}: at most [max_pending] jobs may be queued or
      running. A miss beyond that is refused with an explicit
      [overloaded] response — the daemon never buffers unboundedly. The
      same bound is handed to the supervisor as [max_queue], so even a
      bug in the daemon's own accounting degrades to a {!
      Rfd_engine.Supervisor.Shed} outcome, not an unbounded queue.
    - {b Request coalescing}: concurrent queries for one key share a
      single run; every waiter gets the same (byte-identical) body.
    - {b Slow-client immunity}: per-connection I/O deadlines ([io_timeout])
      while a client is sending a line or draining a response; a dead or
      glacial peer is disconnected, never blocking the accept loop. The
      deadline is suspended while the client legitimately waits on a
      scheduled run.
    - {b Cancellation}: a queued job whose every waiter disconnected is
      skipped before it runs; running jobs finish (warming the cache).
    - {b Graceful drain}: the first {!request_stop} closes the listening
      socket, lets in-flight and queued work finish and be journalled,
      answers the waiters, flushes and closes; {!serve} then returns
      {!Drained}. A second {!request_stop} (or an expired [drain_grace])
      forces: queued work is cancelled, sockets are closed and {!serve}
      returns {!Forced} immediately. Crash recovery needs neither — a
      [kill -9] at any instant loses only unacknowledged in-flight work,
      by the {!Store}'s journal replay. *)

type config = {
  socket_path : string;  (** Unix-domain socket path; replaced if stale *)
  journal_path : string;  (** result journal ({!Store}) *)
  jobs : int option;  (** supervisor worker domains; [None] = default *)
  deadline : float option;  (** per-attempt wall-clock watchdog, seconds *)
  retries : int;  (** extra attempts for crashed / timed-out runs *)
  max_pending : int;  (** admission bound on queued + running jobs *)
  cache : int;  (** resident LRU size handed to {!Store.open_} *)
  io_timeout : float;
      (** seconds a connection may sit mid-request or mid-response *)
  drain_grace : float option;
      (** graceful-drain time limit; [None] = wait for the work *)
  compact_on_start : bool;
      (** run {!Rfd_experiment.Journal.compact} before opening the store *)
  shard_id : int;  (** this daemon's index in the fleet's socket list *)
  shard_count : int;  (** fleet size; [1] = unsharded, admission off *)
  accept_any : bool;
      (** serve keys owned by other shards too (failover deployments) *)
}

val default_config : socket_path:string -> journal_path:string -> config
(** Paper-scale defaults: default worker count, 300 s deadline, 1 retry,
    64 pending, 1024 resident, 10 s I/O timeout, no drain grace,
    compaction on, unsharded (shard 0 of 1). *)

type t

val create : config -> t
(** Compact (optionally) and open the journal, bind and listen on the
    socket (unlinking a stale one), spawn the executor domain, and
    ignore [SIGPIPE] for the process. Raises on an unusable socket path
    or a file that is not an [rfd-journal/3] journal. *)

val request_stop : t -> unit
(** Escalate the stop level: first call starts a graceful drain, second
    forces. Async-signal-safe in the OCaml sense (one atomic store and
    one pipe write — no locks), so it can be called straight from a
    [SIGTERM]/[SIGINT] handler or from another domain. *)

type stop =
  | Drained  (** graceful: all accepted work finished and journalled *)
  | Forced  (** second signal or expired grace; queued work cancelled *)

val serve : t -> stop
(** Run the loop until stopped. Returns {!Drained} with every resource
    released (executor joined, store closed, socket unlinked); returns
    {!Forced} having closed the sockets but deliberately {e not} joined
    the executor — the caller is expected to exit, and the journal's
    per-line fsync discipline makes that safe. Exceptions (fatal I/O,
    unusable journal) propagate to the caller. *)

val stats_json : t -> string
(** The same minified JSON body the [stats] request serves: request
    counters (hits / misses / coalesced / sheds / invalid / io-timeouts /
    retries / cancelled), store population and residency, pending depth,
    connection count, uptime, and the startup compaction summary. *)
