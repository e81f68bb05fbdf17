(* The traced repetition behind --trace 1: every per-layer metric, for
   every workload, from one fresh child process.

   All spans and counters are taken here, around calls into each layer's
   public functions; no program code is instrumented. The repetition
   takes the workload's jobs through every layer in turn:

   1. topology and planning: one [Sweep.materialize] per grid seed, then
      [Sweep.plan];
   2. the pool: [Sweep.execute ~jobs:2];
   3. every job through [Runner.run] twice in a row: untraced, then with
      counting hooks and [Gc.quick_stat] deltas (the traced jobs=1 pass);
   4. the serving stages in process: the workload's query stream through
      protocol parsing, elaboration, materialization, keying, the result
      store and rendering, with one span per stage and request;
   5. the daemon: the same stream against a fresh rfd-simd, one client
      span per request.

   The Serve workload's stream is its Zipf stream. Every other workload
   serves its first (up to) ten jobs once as misses, then cycles over
   them for at least fifty hits. *)

module Protocol = Rfd.Svc_protocol
module Runner = Rfd.Runner
module Sweep = Rfd.Sweep
module Journal = Rfd.Journal
module Store = Rfd.Svc_store
module Hooks = Rfd.Hooks
module Network = Rfd.Network
module J = Json_read

let wall = Rfd.Clock.wall

type counters = {
  mutable sends : int;
  mutable deliveries : int;
  mutable best_changes : int;
  mutable mrai_queued : int;
  mutable mrai_superseded : int;
  mutable charges : int;
  mutable suppressions : int;
  mutable reuses : int;
  mutable noisy_reuses : int;
}

(* Count flap-phase activity by chaining onto the hooks the runner's
   collector installed just before [observe] runs. *)
let count_into c (h : Hooks.t) =
  let on_send = h.Hooks.on_send
  and on_deliver = h.Hooks.on_deliver
  and on_best_change = h.Hooks.on_best_change
  and on_mrai = h.Hooks.on_mrai
  and on_penalty = h.Hooks.on_penalty
  and on_suppress = h.Hooks.on_suppress
  and on_reuse = h.Hooks.on_reuse in
  h.Hooks.on_send <-
    (fun ~time ~src ~dst u ->
      c.sends <- c.sends + 1;
      on_send ~time ~src ~dst u);
  h.Hooks.on_deliver <-
    (fun ~time ~src ~dst u ->
      c.deliveries <- c.deliveries + 1;
      on_deliver ~time ~src ~dst u);
  h.Hooks.on_best_change <-
    (fun ~time ~router ~prefix ~best ->
      c.best_changes <- c.best_changes + 1;
      on_best_change ~time ~router ~prefix ~best);
  h.Hooks.on_mrai <-
    (fun ~time ~router ~peer ~prefix action ->
      (match action with
      | Hooks.Mrai_queued -> c.mrai_queued <- c.mrai_queued + 1
      | Hooks.Mrai_superseded -> c.mrai_superseded <- c.mrai_superseded + 1
      | _ -> ());
      on_mrai ~time ~router ~peer ~prefix action);
  h.Hooks.on_penalty <-
    (fun ~time ~router ~peer ~prefix ~penalty ->
      c.charges <- c.charges + 1;
      on_penalty ~time ~router ~peer ~prefix ~penalty);
  h.Hooks.on_suppress <-
    (fun ~time ~router ~peer ~prefix ->
      c.suppressions <- c.suppressions + 1;
      on_suppress ~time ~router ~peer ~prefix);
  h.Hooks.on_reuse <-
    (fun ~time ~router ~peer ~prefix ~noisy ->
      c.reuses <- c.reuses + 1;
      if noisy then c.noisy_reuses <- c.noisy_reuses + 1;
      on_reuse ~time ~router ~peer ~prefix ~noisy)

type run_trace = {
  result : Runner.result;
  converge_s : float;
  flap_s : float;
  converge_events : int;
  compactions : int;
  routes : int;
  paths : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let traced_run spans c (job : Sweep.job) =
  Spans.with_span spans "runner.run" @@ fun () ->
  let parent = Spans.current spans in
  let observed = ref None in
  let gc0 = Gc.quick_stat () in
  let t0 = wall () in
  let result =
    Runner.run
      ~observe:(fun net ->
        observed := Some (wall (), Rfd.Sim.events_executed (Network.sim net), net);
        count_into c (Network.hooks net))
      job.Sweep.job_scenario
  in
  let t1 = wall () in
  let gc1 = Gc.quick_stat () in
  let at, converge_events, net = Option.get !observed in
  ignore (Spans.add spans ?parent "runner.converge" ~start:t0 ~stop:at);
  ignore (Spans.add spans ?parent "runner.flap" ~start:at ~stop:t1);
  let table = Network.route_table net in
  {
    result;
    converge_s = at -. t0;
    flap_s = t1 -. at;
    converge_events;
    compactions = Rfd.Sim.compactions (Network.sim net);
    routes = Rfd.Route.table_size table;
    paths = Rfd.As_path.table_size (Rfd.Route.path_table table);
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let probe_stream ~jobs =
  let k = min jobs 10 in
  Array.init (k + max 50 k) (fun i -> i mod k)

(* Step 4: the daemon's request path, run in process. The miss path
   stores the traced pass's result instead of simulating again. *)
let serve_in_process spans ~specs ~stream ~results ~journal =
  let store = Store.open_ ~cache:Registry.serve_cache journal in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let memo = Hashtbl.create 16 in
  let bodies = Hashtbl.create 128 and lines = ref [] in
  Array.iteri
    (fun request key_index ->
      let span name f = Spans.with_span spans ~request name f in
      span "request" @@ fun () ->
      let spec = specs.(key_index) in
      let parsed =
        span "protocol.parse" (fun () ->
            let line = Protocol.render_request (Protocol.Query spec) in
            Protocol.parse_request (String.sub line 0 (String.length line - 1)))
      in
      let spec = match parsed with Ok (Protocol.Query s) -> s | _ -> failwith "parse" in
      let scenario = span "protocol.elaborate" (fun () -> Rep.elaborate spec) in
      let resolved = span "sweep.materialize" (fun () -> Sweep.materialize ~memo scenario) in
      let key =
        span "journal.key" (fun () ->
            Journal.job_key resolved ~seed:spec.Protocol.seed ~pulses:spec.Protocol.pulses)
      in
      let found = span "store.find" (fun () -> Store.find store key) in
      let outcome =
        match found with
        | Some o -> o
        | None ->
            let o = Journal.Result results.(key_index) in
            lines := String.length (Journal.render_line ~key o) :: !lines;
            span "store.put" (fun () -> Store.put store ~key o);
            o
      in
      let line =
        span "protocol.render" (fun () ->
            Protocol.render_response
              (Protocol.outcome_response ~key ~cached:(found <> None) outcome))
      in
      match Protocol.parse_response (String.trim line) with
      | Ok (Protocol.Result { body; _ }) -> Hashtbl.replace bodies key_index body
      | _ -> failwith "render")
    stream;
  (bodies, !lines)

(* What the traced child hands its parent (with [Marshal]). *)
type result = { attempted : int; failures : string list; metrics : (string * float * int) list }

let ms s = 1000. *. s
let us s = 1e6 *. s
let median_or_zero = function [] -> 0. | xs -> Stats.median xs
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let run (w : Registry.workload) ~seed ~trace_file =
  let spans = Spans.create () in
  let span name f = Spans.with_span spans name f in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let digests rs = List.map Runner.result_digest rs in
  (* 1. Topology and planning. *)
  let base = Rep.elaborate (Registry.base_for w ~seed) in
  List.iter
    (fun s ->
      let config = { base.Rfd.Scenario.config with Rfd.Config.seed = s } in
      ignore (span "topology.build" (fun () -> Sweep.materialize { base with Rfd.Scenario.config })))
    (w.Registry.seeds seed);
  let jobs = span "sweep.plan" (fun () -> Rep.plan w ~seed) in
  let n = List.length jobs in
  (* 2. The pool, first: it also grows the shared major heap, so the
     untraced and traced passes below start from the same warm heap. *)
  let t0 = wall () in
  let pooled = span "sweep.execute" (fun () -> Sweep.execute ~jobs:2 jobs) in
  let pool_wall = wall () -. t0 in
  (* 3. Each job untraced, then traced, so both see the same host
     conditions and the difference is the tracing overhead. *)
  let c =
    {
      sends = 0; deliveries = 0; best_changes = 0; mrai_queued = 0; mrai_superseded = 0;
      charges = 0; suppressions = 0; reuses = 0; noisy_reuses = 0;
    }
  in
  let reference, traces =
    List.split
      (List.map
         (fun (job : Sweep.job) ->
           let r = Runner.run job.Sweep.job_scenario in
           (r, traced_run spans c job))
         jobs)
  in
  let reference_wall = List.fold_left (fun acc r -> acc +. r.Runner.wall_seconds) 0. reference in
  List.iter (fun r -> Option.iter (fail "%s") (Rep.check_quiet r)) reference;
  if digests pooled <> digests reference then fail "jobs=2 digests differ from jobs=1";
  if digests (List.map (fun t -> t.result) traces) <> digests reference then
    fail "traced digests differ from untraced ones";
  (* 4. Serving stages in process. *)
  let specs = Array.of_list (Registry.specs w ~seed) in
  let stream =
    match w.Registry.shape with
    | Registry.Serve -> Serve.zipf_stream ~seed ~keys:(Array.length specs)
    | Registry.Single | Registry.Sweep -> probe_stream ~jobs:n
  in
  let results = Array.of_list (List.map (fun t -> t.result) traces) in
  let dir = Serve.fresh_dir () in
  let bodies, line_bytes =
    Fun.protect ~finally:(fun () -> Serve.remove_dir dir) @@ fun () ->
    serve_in_process spans ~specs ~stream ~results ~journal:(Filename.concat dir "j.journal")
  in
  (* 5. The daemon. *)
  let d, _ = Serve.start () in
  let pings, replies, stream_wall, st =
    Fun.protect ~finally:(fun () -> Serve.stop d) @@ fun () ->
    let pings =
      let cl = Serve.connect d ~deadline:(wall () +. 10.) in
      Fun.protect ~finally:(fun () -> Rfd.Svc_client.close cl) @@ fun () ->
      List.init 100 (fun _ ->
          let t0 = wall () in
          if not (Rfd.Svc_client.ping cl) then fail "ping failed";
          wall () -. t0)
    in
    let t0 = wall () in
    let replies = Serve.run_stream d ~specs ~stream in
    (pings, replies, wall () -. t0, Serve.stats d)
  in
  List.iter
    (fun (r : Serve.reply) ->
      ignore (Spans.add spans ~request:r.Serve.index "client.query" ~start:r.Serve.start ~stop:r.Serve.stop))
    replies;
  List.iter (fail "%s")
    (Serve.check_replies ~stream ~reference:(Hashtbl.find bodies) replies
    @ Serve.stats_failures st);
  Spans.write spans trace_file;
  (* Metrics. *)
  let stage name = Spans.durations spans name in
  let med name = median_or_zero (stage name) in
  let traced_wall = List.fold_left (fun acc t -> acc +. t.result.Runner.wall_seconds) 0. traces in
  let events = List.fold_left (fun acc t -> acc + t.result.Runner.sim_events) 0 traces in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 traces in
  let sumf f = List.fold_left (fun acc t -> acc +. f t) 0. traces in
  let maxi f = List.fold_left (fun acc t -> max acc (f t)) 0 traces in
  let converge_events = sum (fun t -> t.converge_events) in
  let run_walls = List.map (fun r -> r.Runner.wall_seconds) reference in
  let pooled_walls = List.map (fun r -> r.Runner.wall_seconds) pooled in
  let hit_ms = List.map Serve.latency_ms (List.filter Serve.is_hit replies) in
  let miss_ms = List.map Serve.latency_ms (List.filter Serve.is_miss replies) in
  let stat field = J.to_int (J.member field st) in
  let miss_path_s =
    List.fold_left ( +. ) (Stats.median run_walls)
      (List.map med
         [
           "protocol.parse"; "protocol.elaborate"; "sweep.materialize"; "journal.key";
           "store.find"; "store.put"; "protocol.render";
         ])
  in
  let evf = float_of_int events in
  (* Throughput as the timed repetition measures it: runs one after
     another (Single), runs at 2 jobs (Sweep), replies (Serve). *)
  let answers, answers_wall =
    match w.Registry.shape with
    | Registry.Single -> (n, reference_wall)
    | Registry.Sweep -> (n, pool_wall)
    | Registry.Serve -> (Array.length stream, stream_wall)
  in
  let metrics =
    [
      ("answers_per_s", float_of_int answers /. answers_wall, answers);
      ("events_per_s", evf /. reference_wall, events);
      ("topology.build_ms", ms (med "topology.build"), List.length (stage "topology.build"));
      ("sweep.plan_ms", ms (med "sweep.plan"), 1);
      ("runner.run_ms", ms (Stats.median run_walls), n);
      ("runner.converge_ms", ms (Stats.median (List.map (fun t -> t.converge_s) traces)), n);
      ("runner.converge_events", float_of_int converge_events, n);
      ("runner.flap_ms", ms (Stats.median (List.map (fun t -> t.flap_s) traces)), n);
      ("runner.flap_events", float_of_int (events - converge_events), n);
      ("sim.peak_heap", float_of_int (maxi (fun t -> t.result.Runner.peak_heap)), n);
      ("sim.compactions", float_of_int (sum (fun t -> t.compactions)), n);
      ("network.deliveries", float_of_int c.deliveries, n);
      ("network.sends", float_of_int c.sends, n);
      ("router.best_changes", float_of_int c.best_changes, n);
      ("router.useful_decision_ratio", ratio c.best_changes c.deliveries, c.deliveries);
      ("router.mrai_queued", float_of_int c.mrai_queued, n);
      ("router.mrai_superseded_ratio", ratio c.mrai_superseded c.mrai_queued, c.mrai_queued);
      ("damper.charges", float_of_int c.charges, n);
      ("damper.suppressions", float_of_int c.suppressions, n);
      ("damper.reuses", float_of_int c.reuses, n);
      ("damper.noisy_reuse_ratio", ratio c.noisy_reuses c.reuses, c.reuses);
      ( "damper.reuse_timer_events",
        float_of_int (sum (fun t -> t.result.Runner.reuse_timer_events)),
        n );
      ("route.interned", float_of_int (maxi (fun t -> t.routes)), n);
      ("as_path.interned", float_of_int (maxi (fun t -> t.paths)), n);
      ("gc.minor_words_per_event", sumf (fun t -> t.minor_words) /. evf, events);
      ("gc.promoted_words_per_event", sumf (fun t -> t.promoted_words) /. evf, events);
      ("gc.major_collections", float_of_int (sum (fun t -> t.major_collections)), n);
      ("pool.worker_util", Stats.sum pooled_walls /. (2. *. pool_wall), n);
      ("pool.run_p50_ms", ms (Stats.median pooled_walls), n);
      ("pool.scaling_eff", reference_wall /. (2. *. pool_wall), n);
      ("client.ping_rtt_us", us (Stats.median pings), List.length pings);
      ("protocol.parse_us", us (med "protocol.parse"), Array.length stream);
      ("protocol.elaborate_us", us (med "protocol.elaborate"), Array.length stream);
      ("sweep.materialize_us", us (med "sweep.materialize"), Array.length stream);
      ("journal.key_us", us (med "journal.key"), Array.length stream);
      ("store.find_us", us (med "store.find"), Array.length stream);
      ("store.put_ms", ms (med "store.put"), List.length (stage "store.put"));
      ("protocol.render_us", us (med "protocol.render"), Array.length stream);
      ( "protocol.body_bytes",
        median_or_zero (Hashtbl.fold (fun _ b acc -> float_of_int (String.length b) :: acc) bodies []),
        Hashtbl.length bodies );
      ( "journal.line_bytes",
        median_or_zero (List.map float_of_int line_bytes),
        List.length line_bytes );
      ("store.disk_read_ratio", ratio (stat "disk_reads") (stat "hits"), stat "hits");
      ("server.hit_p50_ms", median_or_zero hit_ms, List.length hit_ms);
      ("server.miss_p50_ms", median_or_zero miss_ms, List.length miss_ms);
      ("server.miss_overhead_ms", median_or_zero miss_ms -. ms miss_path_s, List.length miss_ms);
      ("server.coalesced", float_of_int (stat "coalesced"), Array.length stream);
      ("server.sheds", float_of_int (stat "sheds"), Array.length stream);
      ("trace_overhead_pct", 100. *. ((traced_wall /. reference_wall) -. 1.), n);
    ]
  in
  { attempted = n + Array.length stream; failures = List.rev !failures; metrics }
