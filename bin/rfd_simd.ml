(* rfd-simd — the crash-safe simulation-results daemon.

   Serves rfd-svc/1 queries over a Unix-domain socket, answering from a
   journal-backed content-addressed cache and scheduling misses on the
   supervised executor. See Rfd.Svc_server for the serving semantics;
   this file is only flag plumbing, signal wiring and exit codes. *)

open Cmdliner
module Server = Rfd.Svc_server

let socket_arg =
  let doc = "Unix-domain socket path to listen on (a stale one is replaced)." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let journal_arg =
  let doc =
    "Result journal (rfd-journal/5). Created if absent; replayed on startup so \
     every previously answered query is served from cache, bit-identically, \
     even after a kill -9."
  in
  Arg.(required & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc = "Supervisor worker domains (0 = all cores minus one)." in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Per-attempt wall-clock watchdog for scheduled runs, in seconds (0 \
     disables). A run that overruns is abandoned and retried; if every \
     attempt overruns, the journalled outcome — and every response for that \
     key — is a $(b,timeout) error."
  in
  Arg.(value & opt float 300. & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc = "Extra attempts for crashed or timed-out runs." in
  Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)

let max_pending_arg =
  let doc =
    "Admission bound: at most $(docv) uncached queries may be queued or \
     running; excess queries are refused with an $(b,overloaded) response \
     instead of being buffered."
  in
  Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Decoded results kept resident in RAM (LRU). Evicted entries are re-read \
     from the journal on demand; 0 keeps nothing resident."
  in
  Arg.(value & opt int 1024 & info [ "cache" ] ~docv:"N" ~doc)

let io_timeout_arg =
  let doc =
    "Seconds a connection may sit mid-request or mid-response before being \
     dropped. Waiting for a scheduled run does not count."
  in
  Arg.(value & opt float 10. & info [ "io-timeout" ] ~docv:"SECONDS" ~doc)

let drain_grace_arg =
  let doc =
    "On SIGTERM/SIGINT, force shutdown if the graceful drain takes longer \
     than $(docv) seconds (default: wait for the work)."
  in
  Arg.(value & opt (some float) None & info [ "drain-grace" ] ~docv:"SECONDS" ~doc)

let shard_id_arg =
  let doc =
    "This daemon's index in a sharded fleet (0-based, < $(b,--shard-count)). \
     With sharding on, a query whose key another shard owns is refused with a \
     $(b,wrong-shard) response instead of being served."
  in
  Arg.(value & opt int 0 & info [ "shard-id" ] ~docv:"I" ~doc)

let shard_count_arg =
  let doc =
    "Number of shards in the fleet; 1 (the default) disables shard admission."
  in
  Arg.(value & opt int 1 & info [ "shard-count" ] ~docv:"N" ~doc)

let accept_any_arg =
  let doc =
    "Serve keys owned by other shards too, while still reporting this \
     daemon's shard identity in $(b,stats). This is the failover \
     deployment: the fleet client routes each key to its owner and falls \
     back to any accepting shard when the owner is down."
  in
  Arg.(value & flag & info [ "accept-any" ] ~doc)

let man =
  [
    `S Manpage.s_exit_status;
    `P
      "$(b,0) after a graceful drain (first SIGTERM/SIGINT: stop accepting, \
       finish and journal in-flight work, answer waiters, exit); $(b,2) after \
       a forced shutdown (second signal, or $(b,--drain-grace) expired); \
       $(b,1) on a fatal error (unusable socket or journal, I/O failure).";
    `S Manpage.s_description;
    `P
      "Results are keyed by the digest of the fully resolved (scenario, seed, \
       pulses) triple and stored as fsync'd journal lines before any client \
       is answered, so repeated queries never re-simulate and a crash loses \
       only in-flight work. Query it with $(b,rfd-sim query --socket PATH).";
  ]

let main socket journal jobs deadline retries max_pending cache io_timeout
    drain_grace shard_id shard_count accept_any =
  let cfg =
    {
      Server.socket_path = socket;
      journal_path = journal;
      jobs = (if jobs <= 0 then None else Some jobs);
      deadline = (if deadline <= 0. then None else Some deadline);
      retries;
      max_pending;
      cache;
      io_timeout;
      drain_grace;
      shard_id;
      shard_count;
      accept_any;
    }
  in
  match Server.create cfg with
  | exception e ->
      Format.eprintf "rfd-simd: startup failed: %s@." (Printexc.to_string e);
      exit 1
  | t -> (
      let handler = Sys.Signal_handle (fun _ -> Server.request_stop t) in
      List.iter
        (fun signal ->
          try ignore (Sys.signal signal handler) with Invalid_argument _ -> ())
        [ Sys.sigterm; Sys.sigint ];
      Format.eprintf "rfd-simd: serving on %s (journal %s)@." socket journal;
      Format.eprintf "rfd-simd: %s@." (Server.stats_json t);
      match Server.serve t with
      | Server.Drained ->
          Format.eprintf "rfd-simd: drained cleanly@.";
          exit 0
      | Server.Forced ->
          Format.eprintf "rfd-simd: forced shutdown; queued work cancelled@.";
          exit 2
      | exception e ->
          Format.eprintf "rfd-simd: fatal: %s@." (Printexc.to_string e);
          exit 1)

let cmd =
  let doc = "serve cached flap-damping simulation results over a Unix socket" in
  Cmd.v
    (Cmd.info "rfd-simd" ~version:Rfd.version ~doc ~man)
    Term.(
      const main $ socket_arg $ journal_arg $ jobs_arg $ deadline_arg
      $ retries_arg $ max_pending_arg $ cache_arg $ io_timeout_arg
      $ drain_grace_arg $ shard_id_arg $ shard_count_arg
      $ accept_any_arg)

let () = exit (Cmd.eval cmd)
