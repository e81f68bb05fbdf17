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
    [fsync]'d before {!append} returns, so a crash can at worst leave the
    header or the last line unterminated.

    {b The recovery rule.} Every reader — {!load}, {!check}, {!compact},
    {!create} and the daemon's result store — reads a journal through one
    line scanner ({!fold}), and so by one rule:
    - a file that is a strict prefix of the header line
      ["rfd-journal/5\n"], the empty file included, is an empty journal
      (a crash tore the header);
    - an unterminated last line is a torn tail, whatever it holds (a
      crash tore an append): never an entry, even when only its newline
      is missing;
    - any other first line is refused, by the version it names when it
      is an older journal's header.

    {!create} repairs what the rule forgives before its first append: it
    rewrites a torn header and truncates a torn tail, so a new line never
    joins a fragment.

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

type line =
  | Entry of string * outcome
      (** a terminated line {!parse_line} accepts: its key and outcome *)
  | Corrupt  (** a terminated line {!parse_line} rejects *)
  | Torn  (** the unterminated last line, whatever it holds *)

val fold : string -> ('a -> offset:int -> length:int -> line -> 'a) -> 'a -> 'a
(** [fold path f init] scans the journal at [path] one line at a time,
    passing [f] each body line's byte offset, its length (its newline
    included) and its verdict under the recovery rule. Blank lines are
    skipped. Holds one line in memory at a time. Raises [Failure] when
    the rule refuses the first line, [Sys_error] on an unreadable path. *)

type writer
(** An open journal: appends, and reads back the lines it locates. Not
    safe for concurrent use; the result store serializes it. *)

val create : string -> writer
(** Open [path] for appending, creating it if absent. Before returning
    it applies the recovery rule on disk: a file that is a strict prefix
    of the header line becomes a header line, and a torn tail is
    truncated away (both fsync'd). Raises [Failure] when the rule refuses
    the first line, leaving the file as it was; [Sys_error] or
    [Unix.Unix_error] on an unusable path. *)

val append : writer -> key:string -> outcome -> unit
(** Write one journal line and [fsync] it before returning. *)

val size : writer -> int
(** The journal's length in bytes: the offset the next {!append} writes
    its line at. *)

val read : writer -> offset:int -> length:int -> (string * outcome) option
(** Read back the line at [offset] of [length] bytes, its newline
    included — an extent {!fold} passed, or one {!size} bracketed around
    an {!append}. [Some (key, outcome)] when those bytes still hold a line
    {!parse_line} accepts, [None] otherwise (the file was damaged or cut
    since). *)

val close : writer -> unit

type loaded = {
  entries : (string, outcome) Hashtbl.t;
      (** newest entry per key wins, so re-journalled jobs are harmless *)
  corrupt : int;
      (** lines skipped: malformed, digest mismatch (a damaged key
          included), or unmarshallable — and a torn tail *)
}

val load : string -> loaded
(** Read a journal back under the recovery rule. Raises [Failure] when
    the rule refuses the first line (wrong file, or a version this build
    cannot read); individually bad lines are skipped and counted, never
    fatal. *)

val parse_line : string -> (string * outcome) option
(** Decode one journal body line (no trailing newline): [Some (key,
    outcome)] when the line is one {!render_line} writes — lowercase hex
    payload — whose digest verifies against its key and payload and whose
    payload unmarshals, [None] for anything else. This is the verdict
    {!fold} gives a terminated line. *)

val to_hex : string -> string
(** Lowercase hex, two digits per byte: a line's payload column. *)

val of_hex : string -> string option
(** Inverse of {!to_hex}, either case; [None] on any malformed input. *)

val render_line : key:string -> outcome -> string
(** The exact bytes {!append} would write for this entry, trailing
    newline included. *)

type check_report = {
  checked_valid : int;  (** lines {!parse_line} accepts *)
  checked_duplicates : int;  (** valid lines superseding an earlier key *)
  checked_corrupt : int;  (** terminated lines {!parse_line} rejects *)
  checked_torn : bool;
      (** the file ends in an unterminated line — the benign signature of
          a SIGKILL mid-append, not corruption *)
}

val check : string -> check_report
(** Read-only integrity verification: give every line {!fold}'s verdict
    (digest-check and unmarshal it, then drop the outcome) without
    writing a byte — safe to run on a journal a live daemon holds open.
    Counts agree with {!load} on the same file:
    [checked_valid - checked_duplicates] entries and [checked_corrupt]
    corrupt lines, plus one for a torn tail. Raises [Failure] when the
    recovery rule refuses the first line, [Sys_error] on an unreadable
    path. *)

type compaction = {
  kept : int;  (** distinct keys surviving into the rewritten file *)
  dropped_duplicates : int;
      (** older superseded lines for keys that appear more than once *)
  dropped_corrupt : int;
      (** malformed / digest-mismatched / unmarshallable lines, and a torn
          tail *)
  extents : (string * int * int) list;
      (** each kept line's key, byte offset and length (its newline
          included) in the file as compaction leaves it, in first-seen key
          order: an index of the journal from the one scan *)
}

val compact : string -> compaction
(** Rewrite the journal keeping only the newest line per key (first-seen
    key order, so the output is deterministic), dropping corrupt lines
    and a torn tail. A journal with none of these to drop is left as it
    is, inode and bytes, a torn header included ({!create} repairs that
    before its first append), so a daemon restarted on a clean journal
    copies nothing. Crash-safe: the new content is written to a temp file,
    fsync'd and atomically renamed over the original — at every instant
    the path holds a complete, loadable journal. Byte-preserving:
    surviving lines are copied verbatim from their extents, never
    re-serialized. Must not run concurrently with an open {!writer} on
    the same path (the writer's fd would keep appending to the unlinked
    old file). Raises [Failure] when the recovery rule refuses the first
    line, [Sys_error]/[Unix.Unix_error] on I/O failure. *)
