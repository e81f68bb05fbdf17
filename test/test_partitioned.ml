(* Partitioned conservative-parallel execution: partitions=1 vs N must be
   bit-identical (same Runner.result_digest) for every scenario shape —
   origin updates, link-state flaps, chaos faults, budgets, and random
   QCheck-generated topologies/configs. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Par_net = Rfd_experiment.Par_net
module Collector = Rfd_experiment.Collector
module Injector = Rfd_experiment.Injector
module Recorder = Rfd_experiment.Recorder
module Sim = Rfd_engine.Sim
open Rfd_bgp

let small_mesh = Scenario.Mesh { rows = 3; cols = 3 }

let fast_config ?(damping = true) ?(seed = 42) ?(mrai = 1.) ?(link_jitter = 0.01) () =
  let base = { Config.default with Config.mrai; link_delay = 0.01; link_jitter; seed } in
  if damping then Config.with_damping Rfd_damping.Params.cisco base else base

let base_scenario ?faults ?(mechanism = Scenario.Origin_updates) ?(seed = 42) () =
  Scenario.with_pulses
    (Scenario.make ~name:"par" ~config:(fast_config ~seed ()) ~mechanism ?faults small_mesh)
    2

let digest_at ?budget ~partitions scenario =
  let result, stats = Runner.run_partitioned ?budget ~partitions scenario in
  (Runner.result_digest result, result, stats)

let check_identical ?budget label scenario counts =
  let d1, r1, _ = digest_at ?budget ~partitions:1 scenario in
  List.iter
    (fun partitions ->
      let dn, rn, stats = digest_at ?budget ~partitions scenario in
      Alcotest.(check string)
        (Printf.sprintf "%s: digest partitions=1 vs %d" label partitions)
        d1 dn;
      Alcotest.(check int)
        (Printf.sprintf "%s: corrected events partitions=1 vs %d" label partitions)
        r1.Runner.sim_events rn.Runner.sim_events;
      Alcotest.(check int)
        (Printf.sprintf "%s: effective partition count" label)
        (min partitions r1.Runner.num_nodes) stats.Runner.partitions)
    counts;
  r1

let test_digest_identity () =
  let r = check_identical "origin-updates" (base_scenario ()) [ 2; 4 ] in
  Alcotest.(check bool) "run produced traffic" true (r.Runner.message_count > 0);
  Alcotest.(check bool) "run finished quiet" true
    (match r.Runner.final_status with
    | Runner.Finished Oracle.Quiet -> true
    | _ -> false)

let test_digest_identity_link_state () =
  (* Link-state flapping exercises the broadcast administrative path. *)
  ignore (check_identical "link-state" (base_scenario ~mechanism:Scenario.Link_state ()) [ 2; 3 ])

let chaos_faults () =
  Rfd_faults.Fault_plan.make ~name:"par-chaos" ~seed:5
    ~degradation:{ Rfd_faults.Fault_plan.loss = 0.05; duplication = 0.05 }
    ~random_flaps:
      { Rfd_faults.Fault_plan.cycles = 3; window = 40.; down_mean = 5.; candidates = [] }
    ()

let test_digest_identity_chaos () =
  (* Loss, duplication and seeded random link flaps all draw from the
     per-directed-link RNG streams — the partition layout must not shift
     any draw. *)
  ignore (check_identical "chaos" (base_scenario ~faults:(chaos_faults ()) ()) [ 2; 4 ])

let crash_faults () =
  (* Crashing the mesh centre tears down four sessions in one event, so
     peer_down hooks for five owners fire at one timestamp; the corner
     crash lands on the same timestamp as a separate event. *)
  let router_events =
    [
      { Rfd_faults.Fault_plan.at = 5.; node = 4; action = `Crash };
      { Rfd_faults.Fault_plan.at = 5.; node = 8; action = `Crash };
      { Rfd_faults.Fault_plan.at = 40.; node = 4; action = `Restart };
      { Rfd_faults.Fault_plan.at = 70.; node = 8; action = `Restart };
    ]
  in
  Rfd_faults.Fault_plan.make ~name:"par-crash" ~router_events ()

let test_digest_identity_crash () =
  (* Multi-owner hook bursts at one timestamp are where one partition's
     execution order and the merged (time, owner, seq) order could
     disagree. *)
  let r = check_identical "crash/restart" (base_scenario ~faults:(crash_faults ()) ()) [ 2; 4 ] in
  Alcotest.(check bool) "crash run finished quiet" true
    (match r.Runner.final_status with
    | Runner.Finished Oracle.Quiet -> true
    | _ -> false);
  (* Crashing the centre while the first withdrawal is still propagating:
     each neighbour cancels updates parked for it and queues replacements
     for its other peers, so the MRAI balance moves both ways at one
     timestamp; only its final value and last-change time are kept, and
     both must agree. *)
  let mid_flap =
    Rfd_faults.Fault_plan.make ~name:"par-crash-mid-flap"
      ~router_events:
        [
          { Rfd_faults.Fault_plan.at = 0.05; node = 4; action = `Crash };
          { Rfd_faults.Fault_plan.at = 30.05; node = 4; action = `Restart };
        ]
      ()
  in
  ignore (check_identical "crash mid-flap" (base_scenario ~faults:mid_flap ()) [ 2; 4 ])

let tick_scenario ?faults () =
  let scenario = base_scenario ?faults () in
  let config = { scenario.Scenario.config with Config.reuse_mode = Config.Tick 15. } in
  Scenario.with_pulses (Scenario.make ~name:"par-tick" ~config ?faults small_mesh) 3

let test_digest_identity_tick () =
  (* Reuse wheels fire on the shared tick grid, so several routers release
     suppressed entries at one timestamp: one partition sees them in
     execution order, several in merged (time, owner, seq) order, and the
     collector must not depend on which. *)
  let r = check_identical "tick wheel" (tick_scenario ()) [ 2; 4 ] in
  let log = Collector.reuse_log r.Runner.collector in
  let tied =
    List.exists
      (fun (t, router, _, _) ->
        List.exists (fun (t', router', _, _) -> t = t' && router <> router') log)
      log
  in
  Alcotest.(check bool) "several routers reuse at one grid time" true tied;
  ignore (check_identical "tick wheel + crash" (tick_scenario ~faults:(crash_faults ()) ()) [ 2; 4 ])

let test_digest_identity_budget () =
  (* Budgets are checked at epoch barriers, whose sequence is
     partition-invariant, so a tripped budget cuts every layout at the
     same event prefix. *)
  let scenario = base_scenario () in
  let full, _ = Runner.run_partitioned ~partitions:1 scenario in
  let cap = full.Runner.sim_events / 2 in
  let budget = Runner.budget ~max_events:cap () in
  let r = check_identical ~budget "budget" scenario [ 2; 4 ] in
  Alcotest.(check bool) "budget tripped" true
    (Runner.status_is_budget_exceeded r.Runner.final_status)

let test_par_stats () =
  let _, _, s1 = digest_at ~partitions:1 (base_scenario ()) in
  let _, rn, sn = digest_at ~partitions:3 (base_scenario ()) in
  Alcotest.(check int) "partitions=1: no cut edges" 0 s1.Runner.cut_edges;
  Alcotest.(check int) "partitions=1: one event bucket" 1
    (Array.length s1.Runner.per_partition_events);
  Alcotest.(check int) "partitions=3: three event buckets" 3
    (Array.length sn.Runner.per_partition_events);
  Alcotest.(check bool) "partitions=3: cut is non-empty on a mesh" true (sn.Runner.cut_edges > 0);
  Alcotest.(check bool) "every partition executed events" true
    (Array.for_all (fun e -> e > 0) sn.Runner.per_partition_events);
  (* Raw per-partition counts include the broadcast admin replicas, so they
     sum to >= the corrected total; with no admin events they are equal. *)
  let raw = Array.fold_left ( + ) 0 sn.Runner.per_partition_events in
  Alcotest.(check bool) "raw events cover corrected count" true (raw >= rn.Runner.sim_events);
  Alcotest.(check bool) "epochs counted" true (sn.Runner.epochs > 0);
  Alcotest.(check bool) "path interning total positive" true (sn.Runner.paths_interned_total > 0)

(* Result digests do not cover RIB contents, and at P > 1 a RIB-In slot
   can hold a path interned in another partition's table: every router's
   Loc-RIB and RIB-In, read back as routes, must still be the same at every
   partition count at the end of a many-prefix run. *)
let test_ribs_partition_invariant () =
  let background = 12 and flappers = 6 in
  let scenario =
    Scenario.make ~name:"par-ribs" ~config:(fast_config ()) ~pulses:2
      ~background_prefixes:background
      ~workload:
        (Scenario.Flappers { count = flappers; flaps = 2; mean_gap = 5.; alpha = 1.5; seed = 3 })
      small_mesh
  in
  let ribs partitions =
    let nets = ref [] in
    let result, _ =
      Runner.run_partitioned ~observe:(fun net -> nets := net :: !nets) ~partitions scenario
    in
    let owner node =
      List.find_map
        (fun net ->
          match Network.router net node with
          | r -> Some r
          | exception Invalid_argument _ -> None)
        !nets
      |> Option.get
    in
    let show =
      Option.map (fun r -> (Prefix.to_int (Route.prefix r), As_path.to_list (Route.path r)))
    in
    List.init result.Runner.num_nodes (fun node ->
        let r = owner node in
        List.init (background + flappers + 1) (fun i ->
            let prefix = Prefix.v i in
            let rib_in peer = show (Router.rib_in_route r ~peer prefix) in
            (show (Router.best r prefix), List.map rib_in (Router.peer_ids r))))
  in
  let reference = ribs 1 in
  Alcotest.(check bool) "every router holds routes" true
    (List.for_all (List.exists (fun (best, _) -> best <> None)) reference);
  List.iter
    (fun partitions ->
      if ribs partitions <> reference then
        Alcotest.failf "RIBs at P = %d differ from P = 1" partitions)
    [ 2; 4 ]

let test_partitions_clamped () =
  (* More partitions than nodes degrades to one partition per node. *)
  let scenario = base_scenario () in
  let _, r, stats = digest_at ~partitions:64 scenario in
  Alcotest.(check int) "clamped to node count" r.Runner.num_nodes stats.Runner.partitions;
  let d1, _, _ = digest_at ~partitions:1 scenario in
  let dn, _, _ = digest_at ~partitions:64 scenario in
  Alcotest.(check string) "still bit-identical" d1 dn

let test_observe_and_bus () =
  let nets = ref 0 in
  let bus_updates = ref 0 in
  let observe _net = incr nets in
  let on_bus (hooks : Hooks.t) =
    let previous = hooks.Hooks.on_send in
    hooks.Hooks.on_send <-
      (fun ~time ~src ~dst update ->
        incr bus_updates;
        previous ~time ~src ~dst update)
  in
  let result, _ =
    Runner.run_partitioned ~partitions:2 ~observe ~on_bus (base_scenario ())
  in
  Alcotest.(check int) "observe called once per partition" 2 !nets;
  Alcotest.(check bool) "bus observers see replayed sends" true (!bus_updates > 0);
  (* on_bus wraps after the flap collector attaches, so the collector's
     counts are unaffected by the extra observer. *)
  Alcotest.(check bool) "collector still populated" true (result.Runner.message_count > 0)

let test_single_partition_hooks_are_the_bus () =
  (* Runner.run is the one-partition case: there the network's own hooks
     are the observation bus, so an observer wrapped around them in
     [observe] sees exactly the deliveries the flap collector counts. *)
  let deliveries = ref 0 in
  let observe net =
    let hooks = Network.hooks net in
    let previous = hooks.Hooks.on_deliver in
    hooks.Hooks.on_deliver <-
      (fun ~time ~src ~dst update ->
        incr deliveries;
        previous ~time ~src ~dst update)
  in
  let scenario = base_scenario () in
  let r = Runner.run ~observe scenario in
  Alcotest.(check int) "observer sees every flap-phase delivery" r.Runner.message_count
    !deliveries;
  let r1, _ = Runner.run_partitioned ~partitions:1 scenario in
  Alcotest.(check string) "run = run_partitioned ~partitions:1" (Runner.result_digest r1)
    (Runner.result_digest r)

(* The flap collector sees different routers' same-instant events in
   execution order at one partition and in router order at several, so it
   must keep nothing that depends on that order. Fed one instant's
   suppression and releases in two orders, the damped-link gauge (moving
   both ways at that instant) and the reuse log must come out the same. *)
let test_collector_ignores_tie_order () =
  let prefix = Prefix.v 0 in
  let feed events =
    let hooks = Hooks.create () in
    let c = Collector.create () in
    Collector.attach c hooks;
    hooks.Hooks.on_suppress ~time:0. ~router:2 ~peer:0 ~prefix;
    hooks.Hooks.on_suppress ~time:0. ~router:3 ~peer:0 ~prefix;
    List.iter
      (function
        | `Suppress router -> hooks.Hooks.on_suppress ~time:1. ~router ~peer:0 ~prefix
        | `Reuse router -> hooks.Hooks.on_reuse ~time:1. ~router ~peer:0 ~prefix ~noisy:false)
      events;
    (Rfd_engine.Timeseries.points (Collector.damped_series c), Collector.reuse_log c)
  in
  let damped_a, log_a = feed [ `Suppress 1; `Reuse 2; `Reuse 3 ] in
  let damped_b, log_b = feed [ `Reuse 3; `Reuse 2; `Suppress 1 ] in
  let sample = Alcotest.(pair (float 0.) (float 0.)) in
  Alcotest.(check (array sample))
    "one damped sample per instant" [| (0., 2.); (1., 1.) |] damped_a;
  Alcotest.(check (array sample)) "damped gauge ignores tie order" damped_a damped_b;
  Alcotest.(check (list (pair (float 0.) int))) "reuse log in router order"
    [ (1., 2); (1., 3) ]
    (List.map (fun (t, router, _, _) -> (t, router)) log_a);
  Alcotest.(check bool) "reuse log ignores tie order" true (log_a = log_b)

(* Driving the ensemble by hand, without Runner: a jittered, damped 4x4
   mesh at [partitions]. *)
let with_mesh ~partitions f =
  let mesh = Rfd_topology.Builders.mesh ~rows:4 ~cols:4 in
  let net = Par_net.create ~config:(fast_config ()) ~partitions mesh in
  Fun.protect ~finally:(fun () -> Par_net.shutdown net) (fun () -> f net)

let pending net =
  let counts = ref [] in
  Par_net.iter_nets net (fun shard -> counts := Sim.pending (Network.sim shard) :: !counts);
  List.rev !counts

let test_refused_schedule_touches_nothing () =
  with_mesh ~partitions:2 @@ fun net ->
  let prefix = Prefix.v 0 in
  Par_net.originate net ~node:5 prefix;
  ignore (Par_net.drive net);
  (* The partition clocks stop at each one's last event, so one lags
     [now]; a time between them is in the past for the ensemble. *)
  let lagging = ref infinity in
  Par_net.iter_nets net (fun shard ->
      lagging := Float.min !lagging (Sim.now (Network.sim shard)));
  let now = Par_net.now net in
  Alcotest.(check bool) "one partition clock lags now" true (!lagging < now);
  let at = (!lagging +. now) /. 2. in
  let before = pending net in
  let refused label schedule =
    match schedule () with
    | () -> Alcotest.failf "%s was accepted" label
    | exception Invalid_argument _ -> ()
  in
  let node_in part =
    let rec find node = if Par_net.part_of net node = part then node else find (node + 1) in
    find 0
  in
  List.iter
    (fun part ->
      let node = node_in part in
      let label op = Printf.sprintf "%s at node %d (partition %d)" op node part in
      refused (label "schedule_originate") (fun () ->
          Par_net.schedule_originate net ~at ~node prefix);
      refused (label "schedule_withdraw") (fun () ->
          Par_net.schedule_withdraw net ~at ~node prefix);
      refused (label "schedule_crash") (fun () -> Par_net.schedule_crash net ~at node);
      refused (label "schedule_restart") (fun () -> Par_net.schedule_restart net ~at node))
    [ 0; 1 ];
  refused "schedule_fail_link" (fun () -> Par_net.schedule_fail_link net ~at 0 1);
  refused "schedule_restore_link" (fun () -> Par_net.schedule_restore_link net ~at 0 1);
  refused "NaN time" (fun () -> Par_net.schedule_fail_link net ~at:Float.nan 0 1);
  (* A bad target is refused at a time that is fine. *)
  refused "schedule_fail_link of a non-link" (fun () ->
      Par_net.schedule_fail_link net ~at:now 0 15);
  refused "schedule_restore_link of a self-loop" (fun () ->
      Par_net.schedule_restore_link net ~at:now 3 3);
  refused "schedule_crash of node 16" (fun () -> Par_net.schedule_crash net ~at:now 16);
  refused "schedule_restart of node -1" (fun () -> Par_net.schedule_restart net ~at:now (-1));
  refused "schedule_originate of node 16" (fun () ->
      Par_net.schedule_originate net ~at:now ~node:16 prefix);
  Alcotest.(check (list int)) "no partition's queue changed" before (pending net);
  Par_net.schedule_fail_link net ~at:now 0 1;
  Alcotest.(check (list int)) "a broadcast at now lands in every partition"
    (List.map succ before) (pending net)

(* One script, driven through Par_net's own operations and the injector,
   must end in the same state at every partition count. *)
let hand_driven ~partitions =
  with_mesh ~partitions @@ fun net ->
  let prefixes = [ Prefix.v 0; Prefix.v 1 ] in
  Par_net.originate net ~node:0 (Prefix.v 0);
  Par_net.originate net ~node:15 (Prefix.v 1);
  ignore (Par_net.drive net);
  let t = Par_net.now net in
  Par_net.schedule_withdraw net ~at:(t +. 1.) ~node:0 (Prefix.v 0);
  Par_net.schedule_originate net ~at:(t +. 3.) ~node:0 (Prefix.v 0);
  Par_net.schedule_fail_link net ~at:(t +. 2.) 5 6;
  Par_net.schedule_restore_link net ~at:(t +. 8.) 5 6;
  Par_net.schedule_crash net ~at:(t +. 4.) 10;
  Par_net.schedule_restart net ~at:(t +. 12.) 10;
  Injector.install ~start:(t +. 1.) (chaos_faults ()) net;
  ignore (Par_net.drive net);
  let path_at node prefix =
    Option.map
      (fun route -> As_path.to_list (Route.path route))
      (Router.best (Par_net.router net node) prefix)
  in
  ( List.map (fun prefix -> List.init 16 (fun node -> path_at node prefix)) prefixes,
    List.map (Par_net.reachable_count net) prefixes,
    List.map (Par_net.status net) prefixes,
    Par_net.sim_events net )

let test_hand_driven_invariant () =
  let routes1, reach1, status1, events1 = hand_driven ~partitions:1 in
  Alcotest.(check bool) "some routes survive" true (List.exists (fun r -> r > 0) reach1);
  List.iter
    (fun partitions ->
      let routes, reach, status, events = hand_driven ~partitions in
      let label what = Printf.sprintf "%s: partitions=1 vs %d" what partitions in
      Alcotest.(check bool) (label "best routes") true (routes1 = routes);
      Alcotest.(check (list int)) (label "reachable counts") reach1 reach;
      Alcotest.(check bool) (label "oracle status") true (status1 = status);
      Alcotest.(check int) (label "corrected events") events1 events)
    [ 2; 3 ]

(* A delivery and a broadcast operation that touch one router at one
   instant. Router 0 sends on directed link 0 (0 -> 1, the one whose slot
   is 0) while eight messages to it are in flight, so the message takes a
   different in-flight row at one partition (row 8) than where router 1
   has a partition of its own (row 0); the link fails at the instant the
   message arrives. Whether it is delivered first must not depend on the
   row, so every partition count sees the same arrivals. *)
let delivery_meets_op ~partitions =
  let n = 10 in
  let star = (0, 1) :: List.init (n - 2) (fun k -> (0, k + 2)) in
  let config = { Config.default with Config.mrai = 0.; link_delay = 0.5; link_jitter = 0. } in
  let net = Par_net.create ~config ~partitions (Rfd_topology.Graph.of_edges ~num_nodes:n star) in
  Fun.protect ~finally:(fun () -> Par_net.shutdown net) @@ fun () ->
  let arrivals = ref [] in
  (Par_net.bus net).Hooks.on_deliver <-
    (fun ~time ~src ~dst _ -> if src = 0 && dst = 1 then arrivals := time :: !arrivals);
  Par_net.advance_all net ~time:10.;
  for node = 2 to n - 1 do
    Par_net.originate net ~node (Prefix.v node)
  done;
  let at = 10.25 in
  Par_net.schedule_originate net ~at ~node:0 (Prefix.v 0);
  Par_net.schedule_fail_link net ~at:(at +. config.Config.link_delay) 0 1;
  ignore (Par_net.drive net);
  (!arrivals, Par_net.sim_events net)

let test_delivery_meets_op () =
  let arrivals, events = delivery_meets_op ~partitions:1 in
  List.iter
    (fun partitions ->
      let arrivals', events' = delivery_meets_op ~partitions in
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "arrivals on 0 -> 1, P=1 vs %d" partitions)
        arrivals arrivals';
      Alcotest.(check int) (Printf.sprintf "events, P=1 vs %d" partitions) events events')
    [ 2; 10 ]

(* Random scenarios: any connected topology, seed, damping mode, pulse
   count, link jitter and MRAI must stay partition-invariant. Two draws
   in five have no link jitter and three in seven no MRAI, so same-instant
   deliveries and timers are common. *)
let prop_random_identity =
  let gen = QCheck.(triple (int_range 0 10_000) (int_range 1 3) (int_range 2 4)) in
  QCheck.Test.make ~name:"random scenario: partitions=1 vs N digests equal" ~count:12 gen
    (fun (seed, pulses, partitions) ->
      let damping = seed mod 2 = 0 in
      let link_jitter = if seed mod 5 < 2 then 0. else 0.01 in
      let mrai = if seed mod 7 < 3 then 0. else 1. in
      let config = fast_config ~damping ~seed ~mrai ~link_jitter () in
      let config =
        if seed mod 3 = 0 then { config with Config.reuse_mode = Config.Tick 15. } else config
      in
      let scenario =
        Scenario.with_pulses
          (Scenario.make ~name:"qcheck-par" ~config
             (Scenario.Internet { nodes = 10 + (seed mod 7); m = 2 }))
          pulses
      in
      let d1, _, _ = digest_at ~partitions:1 scenario in
      let dn, _, _ = digest_at ~partitions scenario in
      d1 = dn)

(* A router is built with its sessions: on any graph and at any partition
   count, every owned router's peers are its node's graph neighbours, in
   ascending order. The origin stub is attached the way the runner
   attaches it, as the highest node id, linked to the isp. *)
let prop_sessions_are_neighbours =
  let gen =
    QCheck.(quad (int_range 0 10_000) (int_range 10 60) (int_range 1 3) (int_range 1 4))
  in
  QCheck.Test.make ~name:"every router's sessions are its node's neighbours" ~count:20 gen
    (fun (seed, nodes, m, partitions) ->
      let module Graph = Rfd_topology.Graph in
      let rng = Rfd_engine.Rng.create seed in
      let base = Rfd_topology.Random_graphs.barabasi_albert rng ~n:nodes ~m in
      let isp = Rfd_engine.Rng.int rng nodes in
      let graph = Graph.add_edges (Graph.add_nodes base 1) [ (isp, nodes) ] in
      let net = Par_net.create ~config:(fast_config ~seed ()) ~partitions graph in
      List.for_all
        (fun node ->
          Router.peer_ids (Par_net.router net node) = Array.to_list (Graph.neighbors graph node))
        (List.init (nodes + 1) Fun.id))

(* Inspection never changes a run. At every delivery in the flap phase a
   tap reads the receiver's penalty, suppression flag and RIB-In route
   for the update's prefix, and the timer activity, on every session; the
   run must digest like one that reads nothing. Random small meshes and
   BA graphs, in every damping mode, with Exact and Tick reuse. *)
let prop_inspection_is_pure =
  let gen = QCheck.(quad (int_range 0 10_000) bool (int_range 0 2) bool) in
  QCheck.Test.make ~name:"inspecting routers mid-run leaves the digest unchanged" ~count:12 gen
    (fun (seed, mesh, mode, tick) ->
      let base = { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed } in
      let config =
        Config.with_damping
          ~mode:[| Config.Plain; Config.Rcn; Config.Selective |].(mode)
          ~reuse:(if tick then Config.Tick 15. else Config.Exact)
          Rfd_damping.Params.cisco base
      in
      let topology =
        if mesh then Scenario.Mesh { rows = 3 + (seed mod 3); cols = 3 + (seed / 3 mod 3) }
        else Scenario.Internet { nodes = 10 + (seed mod 30); m = 1 + (seed mod 3) }
      in
      let scenario =
        Scenario.with_pulses (Scenario.make ~name:"inspect" ~config topology) (2 + (seed mod 3))
      in
      let inspect net =
        let hooks = Network.hooks net in
        let previous = hooks.Hooks.on_deliver in
        hooks.Hooks.on_deliver <-
          (fun ~time ~src ~dst update ->
            let r = Network.router net dst and prefix = Update.prefix update in
            List.iter
              (fun peer ->
                ignore (Router.penalty r ~peer prefix);
                ignore (Router.is_suppressed r ~peer prefix);
                ignore (Router.rib_in_route r ~peer prefix);
                ignore (Router.peer_activity r ~peer))
              (Router.peer_ids r);
            previous ~time ~src ~dst update)
      in
      Runner.result_digest (Runner.run scenario)
      = Runner.result_digest (Runner.run ~observe:inspect scenario))

(* Every update a router sends is its Loc-RIB's export at that instant
   ({!Fixture.tap_exports}), checked in each partition's own hooks
   through [observe], chained to what the run installed there. Random
   meshes and BA graphs, with random link flaps, a router crash, loss and
   duplication, background prefixes and Pareto flappers, without damping
   or in each damping mode, with Exact or Tick reuse, at P = 1 to 4. *)
let prop_sends_are_exports =
  let gen = QCheck.(quad (int_range 0 10_000) (int_range 0 3) (int_range 1 4) bool) in
  QCheck.Test.make ~name:"every update sent is the sender's export at that instant" ~count:12
    gen (fun (seed, mode, partitions, tick) ->
      let module Plan = Rfd_faults.Fault_plan in
      let mrai = if seed mod 4 = 0 then 0. else 1. in
      let link_jitter = if seed mod 5 < 2 then 0. else 0.01 in
      let base = fast_config ~damping:false ~seed ~mrai ~link_jitter () in
      let config =
        if mode = 0 then base
        else
          Config.with_damping
            ~mode:[| Config.Plain; Config.Rcn; Config.Selective |].(mode - 1)
            ~reuse:(if tick then Config.Tick 15. else Config.Exact)
            Rfd_damping.Params.cisco base
      in
      let topology =
        if seed mod 2 = 0 then
          Scenario.Mesh { rows = 3 + (seed / 2 mod 2); cols = 3 + (seed / 4 mod 2) }
        else Scenario.Internet { nodes = 10 + (seed mod 20); m = 1 + (seed / 2 mod 2) }
      in
      let faults =
        Plan.make ~name:"exports" ~seed
          ~degradation:{ Plan.loss = 0.05; duplication = 0.05 }
          ~random_flaps:
            { Plan.cycles = 2 + (seed mod 3); window = 40.; down_mean = 5.; candidates = [] }
          ~router_events:
            [
              { Plan.at = 10.; node = 1; action = `Crash };
              { Plan.at = 25.; node = 1; action = `Restart };
            ]
          ()
      in
      let scenario =
        Scenario.make ~name:"exports" ~config ~pulses:(1 + (seed mod 3)) ~faults
          ~background_prefixes:(seed mod 6)
          ~workload:
            (Scenario.Flappers
               { count = 1 + (seed mod 4); flaps = 2; mean_gap = 5.; alpha = 1.5; seed })
          topology
      in
      let taps = ref [] in
      let observe net =
        taps := Fixture.tap_exports ~router:(Network.router net) (Network.hooks net) :: !taps
      in
      ignore (Runner.run_partitioned ~observe ~partitions scenario);
      match List.concat_map (fun stale -> stale ()) !taps with
      | [] -> true
      | stale ->
          QCheck.Test.fail_reportf "sends that are not the sender's export:@.%s"
            (String.concat "\n" stale))

(* Without link jitter, a router's updates and timers routinely share an
   instant with other routers' and with each other. Each of these six runs
   gives one digest and one transcript at P = 1 to 4, because the
   simulator breaks a same-instant tie by what the events are. *)
let test_zero_jitter_identity () =
  let run scenario partitions =
    let transcript = ref (fun () -> []) and delivered = ref [] in
    let on_bus bus =
      transcript := Recorder.transcript ~limit:max_int bus;
      let previous = bus.Hooks.on_deliver in
      bus.Hooks.on_deliver <-
        (fun ~time ~src ~dst update ->
          delivered := time :: !delivered;
          previous ~time ~src ~dst update)
    in
    let result, _ = Runner.run_partitioned ~on_bus ~partitions scenario in
    (Runner.result_digest result, !transcript (), !delivered)
  in
  List.iter
    (fun (label, topology) ->
      List.iter
        (fun mrai ->
          let config = fast_config ~mrai ~link_jitter:0. () in
          let scenario = Scenario.with_pulses (Scenario.make ~name:"par-0" ~config topology) 2 in
          let label = Printf.sprintf "%s, MRAI %g" label mrai in
          let d1, t1, delivered = run scenario 1 in
          Alcotest.(check bool) (label ^ ": deliveries share instants") true
            (List.length (List.sort_uniq Float.compare delivered) < List.length delivered);
          List.iter
            (fun partitions ->
              let dn, tn, _ = run scenario partitions in
              Alcotest.(check string)
                (Printf.sprintf "%s: digest P=1 vs %d" label partitions)
                d1 dn;
              Alcotest.(check (list string))
                (Printf.sprintf "%s: transcript P=1 vs %d" label partitions)
                t1 tn)
            [ 2; 3; 4 ])
        [ 0.; 1. ])
    [
      ("mesh 4x4", Scenario.Mesh { rows = 4; cols = 4 });
      ("mesh 6x6", Scenario.Mesh { rows = 6; cols = 6 });
      ("internet 200", Scenario.Internet { nodes = 200; m = 2 });
    ]

(* Every executed event has one kind, so the per-kind counts sum to the
   corrected event count at any partition count, and each kind is itself
   partition-invariant. On a plain pulse run the only ops are the pulses'
   withdrawals and announcements — routed workload ops for origin
   updates, broadcast admin ops (counted once) for link-state flaps. *)
let test_event_kinds () =
  List.iter
    (fun (label, mechanism) ->
      let scenario = Scenario.with_pulses (base_scenario ~mechanism ()) 3 in
      let kinds partitions =
        let result, stats = Runner.run_partitioned ~partitions scenario in
        let k = stats.Runner.events_by_kind in
        Alcotest.(check int)
          (Printf.sprintf "%s: kinds sum to sim_events at P=%d" label partitions)
          result.Runner.sim_events
          Network.(k.deliveries + k.flushes + k.reuses + k.wheels + k.ops);
        Alcotest.(check int)
          (Printf.sprintf "%s: op = 2 x pulses at P=%d" label partitions)
          6 k.Network.ops;
        k
      in
      let k1 = kinds 1 in
      Alcotest.(check bool) (label ^ ": every timer kind ran") true
        (k1.Network.deliveries > 0 && k1.Network.flushes > 0 && k1.Network.reuses > 0);
      Alcotest.(check int) (label ^ ": no wheel in Exact mode") 0 k1.Network.wheels;
      List.iter
        (fun partitions ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: kinds at P=%d equal P=1" label partitions)
            true
            (kinds partitions = k1))
        [ 2; 4 ])
    [ ("origin updates", Scenario.Origin_updates); ("link state", Scenario.Link_state) ]

let suite =
  [
    Alcotest.test_case "digest: partitions=1 vs 2 vs 4" `Quick test_digest_identity;
    Alcotest.test_case "digest: link-state mechanism" `Quick test_digest_identity_link_state;
    Alcotest.test_case "digest: chaos faults" `Quick test_digest_identity_chaos;
    Alcotest.test_case "digest: router crash/restart" `Quick test_digest_identity_crash;
    Alcotest.test_case "digest: tick-wheel reuse ties" `Quick test_digest_identity_tick;
    Alcotest.test_case "digest: budget-exceeded runs" `Quick test_digest_identity_budget;
    Alcotest.test_case "digest and transcript: zero link jitter" `Quick
      test_zero_jitter_identity;
    Alcotest.test_case "delivery and broadcast op at one instant" `Quick test_delivery_meets_op;
    Alcotest.test_case "par_stats shape" `Quick test_par_stats;
    Alcotest.test_case "event kinds sum to sim_events" `Quick test_event_kinds;
    Alcotest.test_case "partitions clamp to node count" `Quick test_partitions_clamped;
    Alcotest.test_case "RIBs equal at P = 1, 2 and 4" `Quick test_ribs_partition_invariant;
    Alcotest.test_case "observe per net, observers on bus" `Quick test_observe_and_bus;
    Alcotest.test_case "one partition: network hooks are the bus" `Quick
      test_single_partition_hooks_are_the_bus;
    Alcotest.test_case "collector ignores same-instant order" `Quick
      test_collector_ignores_tie_order;
    Alcotest.test_case "refused schedule touches no partition" `Quick
      test_refused_schedule_touches_nothing;
    Alcotest.test_case "hand-driven Par_net is partition-invariant" `Quick
      test_hand_driven_invariant;
    QCheck_alcotest.to_alcotest prop_random_identity;
    QCheck_alcotest.to_alcotest prop_sessions_are_neighbours;
    QCheck_alcotest.to_alcotest prop_inspection_is_pure;
    QCheck_alcotest.to_alcotest prop_sends_are_exports;
  ]
