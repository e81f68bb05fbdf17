(** Crash-safe sweep checkpointing: one fsync'd line per completed job.

    A long parameter sweep (the paper's Figure 8/9 grids over
    pulses × seeds × topologies) should survive the death of the process
    running it. The journal is an append-only text file: a header line,
    then one line per job that reached a {e terminal} outcome —

    {v rfd-journal/5
<job key> <line digest> <hex payload> v}

    where the job key is {!job_key} (the MD5 of the job's fully resolved
    scenario × seed × pulse count), the payload is the marshalled
    {!outcome} and the line digest is the MD5 of the key followed by the
    payload's MD5, so damage to either column fails it. Every append is
    [fsync]'d before {!append} returns, so a line either exists completely
    or not at all as far as a resumed process is concerned; a SIGKILL can
    at worst leave one truncated final line, which {!load} detects (the
    digest cannot match) and skips.

    Because the payload for a finished run is the marshalled
    {!Runner.result} itself, a resumed sweep reassembles {e exactly} the
    points an uninterrupted sweep would have produced — bit-identical
    floats included — which is what makes resume-equivalence testable
    with [diff]. The format is tied to the producing binary (OCaml
    [Marshal]): resume with the build that wrote the journal. Every reader
    refuses older versions: version 1 results came from an older transport
    RNG scheme under unchanged job keys, versions 2 to 4 hold results of
    older layouts (version 3's collector kept boxed per-update samples and
    its result the background placement; version 4's collector columns
    were flat arrays, not chunked {!Rfd_engine.Column}s). *)

val header : string
(** ["rfd-journal/5"], the first line of every journal. *)

val refuse_header : caller:string -> string -> string -> 'a
(** [refuse_header ~caller path text] raises [Failure] for a file whose
    first line — the start of [text], up to any newline — is not
    {!header}. The message starts with [caller] and [path]; for an
    [rfd-journal/1] to [/4] file it names the version found and
    {!header}. *)

type outcome =
  | Result of Runner.result
      (** the run finished — cleanly or budget-exceeded; the distinction
          travels inside {!Runner.result.final_status} *)
  | Crashed of string  (** every allowed attempt raised; last message *)
  | Timed_out of { attempts : int; deadline : float }
      (** every allowed attempt overran its watchdog deadline *)

val job_key : Scenario.t -> seed:int -> pulses:int -> string
(** Hex MD5 of the marshalled [(scenario, seed, pulses)] triple. The
    scenario must be fully resolved (seed substituted, topology
    materialized — what {!Sweep.plan} emits), so that a resumed process,
    re-planning the same sweep, derives the same keys. *)

type writer

val create : string -> writer
(** Open [path] for appending, creating it (with the header line) if it
    does not exist or is empty. Raises [Failure] when a non-empty file
    does not start with {!header}, [Sys_error]/[Unix.Unix_error] on an
    unwritable path. *)

val append : writer -> key:string -> outcome -> unit
(** Write one journal line and [fsync] it before returning. *)

val close : writer -> unit

type loaded = {
  entries : (string, outcome) Hashtbl.t;
      (** newest entry per key wins, so re-journalled jobs are harmless *)
  corrupt : int;
      (** lines skipped: malformed, digest mismatch (a damaged key
          included), or unmarshallable — a truncated SIGKILL tail counts
          here *)
}

val load : string -> loaded
(** Read a journal back. Raises [Failure] if the file does not start
    with {!header} (wrong file, or a version this build cannot read);
    individually bad lines are skipped and counted, never fatal. *)

val parse_line : string -> (string * outcome) option
(** Decode one journal body line (no trailing newline): [Some (key,
    outcome)] when the line is one {!render_line} writes — lowercase hex
    payload — whose digest verifies against its key and payload and whose
    payload unmarshals, [None] for anything torn or corrupt. The random-access read path of the
    result store ({!Rfd_service.Store}) uses this to decode a single line
    without rescanning the whole file. *)

val to_hex : string -> string
(** Lowercase hex, two digits per byte: a line's payload column. *)

val of_hex : string -> string option
(** Inverse of {!to_hex}, either case; [None] on any malformed input. *)

val render_line : key:string -> outcome -> string
(** The exact bytes {!append} would write for this entry, trailing
    newline included — lets a caller that tracks file offsets (the result
    store's index) compute an entry's extent without a [stat] race. *)

type check_report = {
  checked_valid : int;  (** lines whose digest verifies *)
  checked_duplicates : int;  (** valid lines superseding an earlier key *)
  checked_corrupt : int;
      (** terminated lines that fail to parse or digest-verify *)
  checked_torn : bool;
      (** the file ends in an unterminated, unparsable fragment — the
          benign signature of a SIGKILL mid-append, not corruption *)
}

val check : string -> check_report
(** Read-only integrity verification: digest-check every line without
    decoding payloads and without writing a byte — safe to run on a
    journal a live daemon holds open. Counts agree with {!load} on the
    same file: [checked_valid - checked_duplicates] entries and
    [checked_corrupt] corrupt lines, plus one for a torn tail. Raises
    [Failure] when the first line is not {!header}, [Sys_error] on an
    unreadable path. *)

type compaction = {
  kept : int;  (** distinct keys surviving into the rewritten file *)
  dropped_duplicates : int;
      (** older superseded lines for keys that appear more than once *)
  dropped_corrupt : int;
      (** malformed / digest-mismatched / unmarshallable lines, torn
          SIGKILL tails included *)
}

val compact : string -> compaction
(** Rewrite the journal keeping only the newest line per key (first-seen
    key order, so the output is deterministic), dropping corrupt lines.
    Crash-safe: the new content is written to a temp file, fsync'd and
    atomically renamed over the original — at every instant the path
    holds a complete, loadable journal. Byte-preserving: surviving lines
    are copied verbatim, never re-serialized. Must not run concurrently
    with an open {!writer} on the same path (the writer's fd would keep
    appending to the unlinked old file). Raises [Failure] when the file
    does not start with {!header}, [Sys_error]/[Unix.Unix_error] on I/O
    failure. *)
