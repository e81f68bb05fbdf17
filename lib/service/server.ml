module Journal = Rfd_experiment.Journal
module Runner = Rfd_experiment.Runner
module Scenario = Rfd_experiment.Scenario
module Json = Rfd_experiment.Json
module Supervisor = Rfd_engine.Supervisor

type config = {
  socket_path : string;
  journal_path : string;
  jobs : int option;
  deadline : float option;
  retries : int;
  max_pending : int;
  cache : int;
  io_timeout : float;
  drain_grace : float option;
  shard_id : int;  (* this daemon's slot in the fleet's socket order *)
  shard_count : int;  (* 1 = unsharded, admission never refuses *)
  accept_any : bool;  (* serve keys other shards own (failover target) *)
}

let default_config ~socket_path ~journal_path =
  {
    socket_path;
    journal_path;
    jobs = None;
    deadline = Some 300.;
    retries = 1;
    max_pending = 64;
    cache = 1024;
    io_timeout = 10.;
    drain_grace = None;
    shard_id = 0;
    shard_count = 1;
    accept_any = false;
  }

type stop = Drained | Forced

(* Longest request line we will buffer before refusing the connection —
   a real query is a few hundred bytes, so anything near this is a
   client streaming garbage. *)
let max_line = 65_536

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable inbuf : string;
  mutable out : string;
  mutable out_pos : int;
  mutable io_deadline : float;  (* [infinity] while idle or awaiting a run *)
  mutable waiting_key : string option;
  mutable closing : bool;  (* close once flushed and not waiting *)
}

type completion = Stored | Cancelled_job

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;  (* attached to an already-pending run *)
  mutable sheds : int;
  mutable invalid : int;
  mutable io_timeouts : int;
  mutable retries_done : int;  (* extra supervisor attempts that ran *)
  mutable cancelled : int;  (* queued jobs skipped or drain-cancelled *)
  mutable wrong_shard : int;  (* keys refused at shard admission *)
}

type t = {
  cfg : config;
  store : Store.t;
  mutable listen_fd : Unix.file_descr;
  mutable listening : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop_level : int Atomic.t;  (* 0 running / 1 draining / 2 forced *)
  mu : Mutex.t;
  cond : Condition.t;  (* signals the executor: pending work or drain *)
  pending : (string * Scenario.t) Queue.t;
  pending_keys : (string, unit) Hashtbl.t;
      (* the key set of queued and running jobs; its size is the admission gauge *)
  waiters : (string, int list ref) Hashtbl.t;  (* key -> waiting conn ids *)
  completed : (string * completion) Queue.t;  (* executor -> main *)
  conns : (int, conn) Hashtbl.t;  (* main domain only *)
  mutable next_cid : int;
  stats : stats;  (* guarded by [mu] *)
  memo : (int * Scenario.topology, Rfd_topology.Graph.t) Hashtbl.t;
  started : float;
  mutable executor : unit Domain.t option;
  mutable draining : bool;
  mutable drain_started : float;
}

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let request_stop t =
  let rec bump () =
    let cur = Atomic.get t.stop_level in
    if cur < 2 && not (Atomic.compare_and_set t.stop_level cur (cur + 1)) then
      bump ()
  in
  bump ();
  wake t

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ------------------------------------------------------------------ *)
(* Executor domain: batches of misses onto the PR 5 supervisor.        *)

(* Runs in the executor domain as each terminal outcome lands. The
   store append (fsync'd) happens before the completion is made visible
   to the main loop, so a client can never be told about a result that
   a crash could lose. *)
let record_outcome t key outcome =
  let completion =
    match outcome with
    | Supervisor.Completed { value; attempts } ->
        Store.put t.store ~key (Journal.Result value);
        `Stored (attempts - 1)
    | Supervisor.Crashed { error; attempts } ->
        Store.put t.store ~key (Journal.Crashed error);
        `Stored (attempts - 1)
    | Supervisor.Timed_out { attempts; deadline } ->
        Store.put t.store ~key (Journal.Timed_out { attempts; deadline });
        `Stored (attempts - 1)
    | Supervisor.Cancelled -> `Cancelled
  in
  with_mu t (fun () ->
      (match completion with
      | `Stored extra ->
          t.stats.retries_done <- t.stats.retries_done + extra;
          Queue.add (key, Stored) t.completed
      | `Cancelled ->
          t.stats.cancelled <- t.stats.cancelled + 1;
          Queue.add (key, Cancelled_job) t.completed);
      Hashtbl.remove t.pending_keys key);
  wake t

let executor_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.mu;
    while Queue.is_empty t.pending && Atomic.get t.stop_level < 1 do
      Condition.wait t.cond t.mu
    done;
    let batch = ref [] in
    while not (Queue.is_empty t.pending) do
      let key, scenario = Queue.pop t.pending in
      let live =
        match Hashtbl.find_opt t.waiters key with
        | Some ids -> !ids <> []
        | None -> false
      in
      if live then batch := (key, scenario) :: !batch
      else begin
        (* Every waiter disconnected while the job was queued: skip it —
           cooperative cancellation, nothing simulated for nobody. *)
        Hashtbl.remove t.pending_keys key;
        Hashtbl.remove t.waiters key;
        t.stats.cancelled <- t.stats.cancelled + 1
      end
    done;
    let batch = List.rev !batch in
    if batch = [] && Atomic.get t.stop_level >= 1 then running := false;
    Mutex.unlock t.mu;
    if batch <> [] then
      ignore
        (Supervisor.supervise ?jobs:t.cfg.jobs ?deadline:t.cfg.deadline
           ~retries:t.cfg.retries ~poll_interval:0.02
           ~should_stop:(fun () -> Atomic.get t.stop_level >= 2)
           ~on_outcome:(fun (key, _) outcome -> record_outcome t key outcome)
           ~key:fst
           (fun (_, scenario) -> Runner.run scenario)
           batch)
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create cfg =
  if cfg.max_pending < 0 then
    invalid_arg "Server.create: max_pending must be >= 0";
  if cfg.io_timeout <= 0. then
    invalid_arg "Server.create: io_timeout must be positive";
  if cfg.retries < 0 then invalid_arg "Server.create: retries must be >= 0";
  Shard.validate_admission ~shard_id:cfg.shard_id ~shard_count:cfg.shard_count;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store = Store.open_ ~cache:cfg.cache cfg.journal_path in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     (try Unix.unlink cfg.socket_path
      with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     Unix.close listen_fd;
     Store.close store;
     raise e);
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      store;
      listen_fd;
      listening = true;
      wake_r;
      wake_w;
      stop_level = Atomic.make 0;
      mu = Mutex.create ();
      cond = Condition.create ();
      pending = Queue.create ();
      pending_keys = Hashtbl.create 64;
      waiters = Hashtbl.create 64;
      completed = Queue.create ();
      conns = Hashtbl.create 32;
      next_cid = 0;
      stats =
        {
          hits = 0;
          misses = 0;
          coalesced = 0;
          sheds = 0;
          invalid = 0;
          io_timeouts = 0;
          retries_done = 0;
          cancelled = 0;
          wrong_shard = 0;
        };
      memo = Hashtbl.create 8;
      started = Unix.gettimeofday ();
      executor = None;
      draining = false;
      drain_started = 0.;
    }
  in
  t.executor <- Some (Domain.spawn (fun () -> executor_loop t));
  t

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let stats_json t =
  let ( hits,
        misses,
        coalesced,
        sheds,
        invalid,
        io_timeouts,
        retries,
        cancelled,
        wrong_shard,
        pending ) =
    with_mu t (fun () ->
        let s = t.stats in
        ( s.hits,
          s.misses,
          s.coalesced,
          s.sheds,
          s.invalid,
          s.io_timeouts,
          s.retries_done,
          s.cancelled,
          s.wrong_shard,
          Hashtbl.length t.pending_keys ))
  in
  let compaction_fields =
    match Store.compaction t.store with
    | None -> []
    | Some c ->
        [
          ("compacted_kept", Json.Int c.Journal.kept);
          ("compacted_duplicates", Json.Int c.Journal.dropped_duplicates);
          ("compacted_corrupt", Json.Int c.Journal.dropped_corrupt);
        ]
  in
  let obj =
    Json.Obj
      ([
         ("schema", Json.String Protocol.version);
         ("uptime", Json.Float (Unix.gettimeofday () -. t.started));
         ("shard_id", Json.Int t.cfg.shard_id);
         ("shard_count", Json.Int t.cfg.shard_count);
         ("accept_any", Json.Bool t.cfg.accept_any);
         ("connections", Json.Int (Hashtbl.length t.conns));
         ("pending", Json.Int pending);
         ("max_pending", Json.Int t.cfg.max_pending);
         ("entries", Json.Int (Store.entries t.store));
         ("resident", Json.Int (Store.resident t.store));
         ("disk_reads", Json.Int (Store.disk_reads t.store));
         ("hits", Json.Int hits);
         ("misses", Json.Int misses);
         ("coalesced", Json.Int coalesced);
         ("sheds", Json.Int sheds);
         ("invalid", Json.Int invalid);
         ("io_timeouts", Json.Int io_timeouts);
         ("retries", Json.Int retries);
         ("cancelled", Json.Int cancelled);
         ("wrong_shard", Json.Int wrong_shard);
       ]
      @ compaction_fields)
  in
  String.trim (Json.to_string ~minify:true obj)

(* ------------------------------------------------------------------ *)
(* Connection plumbing (main domain only)                              *)

let refused ?key code message =
  Protocol.Refused
    { code; body = Protocol.error_body ?key ~code ~message () }

let refresh_deadline t conn now =
  if conn.waiting_key <> None then conn.io_deadline <- infinity
  else if conn.inbuf <> "" || conn.out_pos < String.length conn.out then
    conn.io_deadline <- now +. t.cfg.io_timeout
  else conn.io_deadline <- infinity

let respond t conn response =
  let rest =
    String.sub conn.out conn.out_pos (String.length conn.out - conn.out_pos)
  in
  conn.out <- rest ^ Protocol.render_response response;
  conn.out_pos <- 0;
  refresh_deadline t conn (Unix.gettimeofday ())

let close_conn t conn =
  Hashtbl.remove t.conns conn.cid;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  match conn.waiting_key with
  | None -> ()
  | Some key ->
      conn.waiting_key <- None;
      with_mu t (fun () ->
          match Hashtbl.find_opt t.waiters key with
          | Some ids -> ids := List.filter (fun id -> id <> conn.cid) !ids
          | None -> ())

let bump t f = with_mu t (fun () -> f t.stats)

let handle_query t conn spec =
  match Protocol.resolve_spec ~memo:t.memo spec with
  | Error msg ->
      bump t (fun s -> s.invalid <- s.invalid + 1);
      respond t conn (refused Protocol.Invalid msg)
  | Ok (resolved, key) -> (
      if
        t.cfg.shard_count > 1
        && (not t.cfg.accept_any)
        && not
             (Shard.owns ~shard_id:t.cfg.shard_id
                ~shard_count:t.cfg.shard_count key)
      then begin
        (* Shard admission: a correctly routed fleet never hits this; a
           misconfigured client learns the owner instead of polluting
           this shard's journal with foreign keys. *)
        bump t (fun s -> s.wrong_shard <- s.wrong_shard + 1);
        respond t conn
          (refused ~key Protocol.Wrong_shard
             (Printf.sprintf
                "key %s belongs to shard %d of %d (this daemon is shard %d)"
                key
                (Shard.owner ~shard_count:t.cfg.shard_count key)
                t.cfg.shard_count t.cfg.shard_id))
      end
      else
      let action =
        with_mu t (fun () ->
            match Store.find t.store key with
            | Some outcome ->
                t.stats.hits <- t.stats.hits + 1;
                `Hit outcome
            | None ->
                if Atomic.get t.stop_level >= 1 then `Draining
                else if Hashtbl.mem t.pending_keys key then begin
                  let ids =
                    match Hashtbl.find_opt t.waiters key with
                    | Some ids -> ids
                    | None ->
                        let ids = ref [] in
                        Hashtbl.replace t.waiters key ids;
                        ids
                  in
                  ids := conn.cid :: !ids;
                  t.stats.coalesced <- t.stats.coalesced + 1;
                  `Wait
                end
                else if Hashtbl.length t.pending_keys >= t.cfg.max_pending
                then begin
                  t.stats.sheds <- t.stats.sheds + 1;
                  `Shed
                end
                else begin
                  Queue.add (key, resolved) t.pending;
                  Hashtbl.replace t.pending_keys key ();
                  Hashtbl.replace t.waiters key (ref [ conn.cid ]);
                  t.stats.misses <- t.stats.misses + 1;
                  Condition.broadcast t.cond;
                  `Wait
                end)
      in
      match action with
      | `Hit outcome ->
          respond t conn (Protocol.outcome_response ~key ~cached:true outcome)
      | `Draining ->
          respond t conn
            (refused ~key Protocol.Shutting_down
               "server is draining; retry against a fresh instance")
      | `Shed ->
          respond t conn
            (refused ~key Protocol.Overloaded
               (Printf.sprintf "%d jobs pending (cap %d); retry with backoff"
                  t.cfg.max_pending t.cfg.max_pending))
      | `Wait ->
          conn.waiting_key <- Some key;
          conn.io_deadline <- infinity)

let handle_line t conn line =
  match Protocol.parse_request line with
  | Error msg ->
      bump t (fun s -> s.invalid <- s.invalid + 1);
      respond t conn (refused Protocol.Invalid msg)
  | Ok Protocol.Ping -> respond t conn Protocol.Pong
  | Ok Protocol.Stats -> respond t conn (Protocol.Stats (stats_json t))
  | Ok (Protocol.Query spec) -> handle_query t conn spec

(* Pull complete lines out of the connection's input buffer. Parsing is
   gated while the connection awaits a scheduled run, so responses on
   one connection always arrive in request order. *)
let rec process_input t conn =
  if Hashtbl.mem t.conns conn.cid && conn.waiting_key = None && not conn.closing
  then
    match String.index_opt conn.inbuf '\n' with
    | None ->
        if String.length conn.inbuf > max_line then begin
          bump t (fun s -> s.invalid <- s.invalid + 1);
          respond t conn (refused Protocol.Invalid "request line too long");
          conn.closing <- true
        end
    | Some i ->
        let line = String.sub conn.inbuf 0 i in
        conn.inbuf <-
          String.sub conn.inbuf (i + 1) (String.length conn.inbuf - i - 1);
        handle_line t conn line;
        process_input t conn

(* Hand every completion the executor queued to its waiters. The body is
   rebuilt from the store, never from the in-flight value — the exact
   path a cache hit or a post-restart replay takes, which is what makes
   hit and miss responses byte-identical. *)
let deliver_completed t =
  let targets =
    with_mu t (fun () ->
        let items = ref [] in
        while not (Queue.is_empty t.completed) do
          items := Queue.pop t.completed :: !items
        done;
        List.rev_map
          (fun (key, kind) ->
            let ids =
              match Hashtbl.find_opt t.waiters key with
              | Some ids -> List.rev !ids
              | None -> []
            in
            Hashtbl.remove t.waiters key;
            (key, kind, ids))
          !items
        |> List.rev)
  in
  List.iter
    (fun (key, kind, ids) ->
      let response =
        match kind with
        | Stored -> (
            match Store.find t.store key with
            | Some outcome ->
                Protocol.outcome_response ~key ~cached:false outcome
            | None ->
                refused ~key Protocol.Crashed
                  "journalled result unreadable")
        | Cancelled_job ->
            refused ~key Protocol.Shutting_down
              "run cancelled by server shutdown"
      in
      List.iter
        (fun cid ->
          match Hashtbl.find_opt t.conns cid with
          | None -> ()
          | Some conn ->
              conn.waiting_key <- None;
              respond t conn response;
              if t.draining then conn.closing <- true;
              process_input t conn)
        ids)
    targets

let try_write t conn =
  let len = String.length conn.out - conn.out_pos in
  if len > 0 then
    match Unix.write_substring conn.fd conn.out conn.out_pos len with
    | n ->
        conn.out_pos <- conn.out_pos + n;
        if conn.out_pos >= String.length conn.out then begin
          conn.out <- "";
          conn.out_pos <- 0
        end;
        refresh_deadline t conn (Unix.gettimeofday ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        close_conn t conn

let handle_read t conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.fd buf 0 4096 with
  | 0 -> close_conn t conn
  | n ->
      conn.inbuf <- conn.inbuf ^ Bytes.sub_string buf 0 n;
      process_input t conn;
      if Hashtbl.mem t.conns conn.cid then
        refresh_deadline t conn (Unix.gettimeofday ())
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn t conn

let handle_accept t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      let cid = t.next_cid in
      t.next_cid <- cid + 1;
      Hashtbl.replace t.conns cid
        {
          fd;
          cid;
          inbuf = "";
          out = "";
          out_pos = 0;
          io_deadline = infinity;
          waiting_key = None;
          closing = false;
        }
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
      ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    t.drain_started <- Unix.gettimeofday ();
    if t.listening then begin
      t.listening <- false;
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink t.cfg.socket_path
       with Unix.Unix_error _ | Sys_error _ -> ())
    end;
    Hashtbl.iter (fun _ conn -> conn.closing <- true) t.conns;
    with_mu t (fun () -> Condition.broadcast t.cond)
  end

let work_remains t =
  with_mu t (fun () ->
      (not (Queue.is_empty t.pending))
      || Hashtbl.length t.pending_keys > 0
      || not (Queue.is_empty t.completed))

let conn_snapshot t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let serve t =
  let finish = ref None in
  while !finish = None do
    if Atomic.get t.stop_level >= 2 then finish := Some Forced
    else begin
      if Atomic.get t.stop_level >= 1 then begin_drain t;
      (match t.cfg.drain_grace with
      | Some grace
        when t.draining && Unix.gettimeofday () -. t.drain_started > grace ->
          Atomic.set t.stop_level 2
      | _ -> ());
      if Atomic.get t.stop_level >= 2 then finish := Some Forced
      else if t.draining && Hashtbl.length t.conns = 0 && not (work_remains t)
      then finish := Some Drained
      else begin
        let now = Unix.gettimeofday () in
        let reads = ref [ t.wake_r ] in
        if t.listening then reads := t.listen_fd :: !reads;
        let writes = ref [] in
        let nearest =
          ref
            (match t.cfg.drain_grace with
            | Some grace when t.draining -> t.drain_started +. grace
            | _ -> infinity)
        in
        Hashtbl.iter
          (fun _ c ->
            reads := c.fd :: !reads;
            if c.out_pos < String.length c.out then writes := c.fd :: !writes;
            if c.io_deadline < !nearest then nearest := c.io_deadline)
          t.conns;
        let timeout =
          if !nearest = infinity then 1.0
          else max 0.01 (min 1.0 (!nearest -. now))
        in
        (match Unix.select !reads !writes [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rs, ws, _ ->
            if List.mem t.wake_r rs then drain_wake t;
            deliver_completed t;
            if t.listening && List.mem t.listen_fd rs then handle_accept t;
            let snapshot = conn_snapshot t in
            List.iter
              (fun c ->
                if Hashtbl.mem t.conns c.cid && List.mem c.fd ws then
                  try_write t c)
              snapshot;
            List.iter
              (fun c ->
                if Hashtbl.mem t.conns c.cid && List.mem c.fd rs then
                  handle_read t c)
              snapshot);
        (* Deadline enforcement and deferred closes. *)
        let now = Unix.gettimeofday () in
        List.iter
          (fun c ->
            if Hashtbl.mem t.conns c.cid then
              if now > c.io_deadline then begin
                bump t (fun s -> s.io_timeouts <- s.io_timeouts + 1);
                close_conn t c
              end
              else if
                c.closing && c.waiting_key = None
                && c.out_pos >= String.length c.out
              then close_conn t c)
          (conn_snapshot t)
      end
    end
  done;
  match !finish with
  | Some Forced | None ->
      (* Forced: release what the OS needs released and get out. The
         executor domain is deliberately not joined — in-flight attempts
         may run for a while, and the caller is about to exit; the
         journal's line-at-a-time fsync discipline makes that safe. *)
      with_mu t (fun () -> Condition.broadcast t.cond);
      if t.listening then begin
        t.listening <- false;
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (try Unix.unlink t.cfg.socket_path
         with Unix.Unix_error _ | Sys_error _ -> ())
      end;
      Hashtbl.iter
        (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        t.conns;
      Hashtbl.reset t.conns;
      Forced
  | Some Drained ->
      (match t.executor with
      | Some d ->
          Domain.join d;
          t.executor <- None
      | None -> ());
      Store.close t.store;
      (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
      (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
      Drained
