(** Batch execution on worker domains: watchdogs, respawn, deterministic
    retry.

    Every batch of independent runs — a sweep, the bench harness's
    figures, the daemon's misses — executes here. The calling domain
    becomes a {e monitor} that watches [jobs] worker domains and

    - enforces a per-job wall-clock [deadline]: an attempt that overruns
      is abandoned (its domain is replaced by a fresh one — OCaml domains
      cannot be killed, so the stuck domain is simply orphaned and its
      late result, should it ever arrive, is discarded by an epoch check)
      and the job is either retried or reported as {!Timed_out};
    - respawns a worker whose domain died (a job raised {!Crash_worker},
      or anything else escaped the per-job capture), so the remaining
      queued jobs still run;
    - retries failed and timed-out jobs up to [retries] extra attempts,
      spacing attempts with a jittered exponential backoff whose RNG is
      derived from the job's [key] and the attempt number — never from
      wall-clock time — so a re-run of the same batch backs off
      identically;
    - supports cooperative cancellation: once [should_stop ()] turns true,
      queued jobs are marked {!Cancelled}, in-flight jobs finish (or time
      out) and no retries are scheduled — the graceful SIGINT drain of
      [rfd-sim sweep].

    With no deadline, no retries and no [should_stop], a batch simply runs
    every job once and returns its outcomes: a job's exception becomes
    {!Crashed}, so one failing job costs exactly its own slot.

    Jobs must be pure functions of their input (true of simulation runs,
    which rebuild everything from a seed): after a timeout an abandoned
    attempt may still be running while its retry executes, and only the
    retry's result is kept. Purity is also what makes a retried success
    bit-identical to a first-try success.

    Outcomes are returned in input order, independent of [jobs]. *)

type 'a outcome =
  | Completed of { value : 'a; attempts : int }
      (** the job returned a value on attempt [attempts] (1 = first try) *)
  | Crashed of { attempts : int; error : string }
      (** every allowed attempt raised; [error] is the last attempt's
          printed exception *)
  | Timed_out of { attempts : int; deadline : float }
      (** every allowed attempt overran [deadline] wall-clock seconds *)
  | Cancelled
      (** the job was still queued when [should_stop] turned true *)

exception Crash_worker of string
(** A job raising this does not merely fail the attempt — it kills its
    worker domain, exercising the monitor's respawn path. Exists for fault
    injection in tests; treated like any crash for retry accounting. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (one worker per core, keeping
    the calling domain for the monitor), clamped to at least 1. *)

val backoff_delay : key:string -> attempt:int -> base:float -> float
(** Seconds to wait before [attempt] (2 = first retry) of the job named
    [key]: [base * 2^(attempt-2)], jittered uniformly in [[0.5, 1.5)] by a
    SplitMix64 stream seeded from [(key, attempt)], capped at 5 s. Pure —
    equal arguments give equal delays. [attempt <= 1] is 0. *)

val supervise :
  ?jobs:int ->
  ?deadline:float ->
  ?retries:int ->
  ?backoff_base:float ->
  ?poll_interval:float ->
  ?should_stop:(unit -> bool) ->
  ?on_outcome:('a -> 'b outcome -> unit) ->
  key:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** [supervise ~key f xs] runs [f] on every element of [xs] under
    supervision and returns one {!outcome} per input, in input order.

    [jobs] worker domains execute attempts (default {!default_jobs};
    clamped to at least 1, and to the batch size; [~jobs:1] still spawns
    one domain, because the calling domain is busy monitoring). [deadline]
    is the per-attempt wall-clock limit in seconds (default: none).
    [retries] is the number of {e extra} attempts after the first
    (default 0). [backoff_base] seeds {!backoff_delay} (default 0.05 s).
    [key] names a job for its backoff; it is evaluated only when a retry
    runs. [poll_interval] is the monitor's watchdog granularity (default
    0.05 s): the monitor naps 1 ms after its first pass and after every
    pass in which an outcome landed, doubling the nap otherwise up to
    [poll_interval], so deadlines are enforced to within one interval and
    a batch is collected soon after its last job ends. [should_stop] is
    polled on every pass.

    Every input is queued; bounding a batch is the caller's admission
    decision, made before it calls.

    [on_outcome] is invoked in the calling domain, outside any lock, once
    per job as its terminal outcome lands (completion order, not input
    order) — the hook the sweep journal writes from. If it raises, the
    supervisor shuts its workers down and re-raises.

    Raises [Invalid_argument] on a negative [retries] or a non-positive
    [deadline], [backoff_base] or [poll_interval]. *)
