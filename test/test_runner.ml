(* Tests for scenario validation, the collector, and the runner on small
   topologies. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Collector = Rfd_experiment.Collector
module Sweep = Rfd_experiment.Sweep
module Phases = Rfd_experiment.Phases
module Pulse = Rfd_experiment.Pulse
module Trace = Rfd_experiment.Trace
open Rfd_bgp

let small_mesh = Scenario.Mesh { rows = 3; cols = 3 }

let fast ?(damping = true) ?(mode = Config.Plain) () =
  let base =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01 }
  in
  if damping then Config.with_damping ~mode Rfd_damping.Params.cisco base else base

(* [Scenario.make] rejects bad field values eagerly; records mutated by
   hand (via [{ s with ... }]) are still caught by [validate] and by
   [Runner.run]. *)
let test_scenario_validation () =
  let hand_made mutate = mutate (Scenario.make small_mesh) in
  let bad = hand_made (fun s -> { s with Scenario.pulses = -1 }) in
  Alcotest.(check bool) "negative pulses" true (Result.is_error (Scenario.validate bad));
  let bad = hand_made (fun s -> { s with Scenario.flap_interval = 0. }) in
  Alcotest.(check bool) "zero interval" true (Result.is_error (Scenario.validate bad));
  let bad = hand_made (fun s -> { s with Scenario.flap_interval = infinity }) in
  Alcotest.(check bool) "infinite interval" true (Result.is_error (Scenario.validate bad));
  let bad = hand_made (fun s -> { s with Scenario.settle_gap = Float.nan }) in
  Alcotest.(check bool) "NaN settle gap" true (Result.is_error (Scenario.validate bad));
  let bad = hand_made (fun s -> { s with Scenario.topology = Scenario.Mesh { rows = 2; cols = 2 } }) in
  Alcotest.(check bool) "tiny mesh" true (Result.is_error (Scenario.validate bad));
  let good = Scenario.make small_mesh in
  Alcotest.(check bool) "default valid" true (Scenario.validate good = Ok ());
  Alcotest.check_raises "runner surfaces validation"
    (Invalid_argument "Runner.run: pulses must be non-negative (got -1)") (fun () ->
      ignore (Runner.run (hand_made (fun s -> { s with Scenario.pulses = -1 }))))

(* Each flap-phase source is held to the lockstep engine's advance test:
   an event time the link delay cannot move past is refused by [validate]
   (the message says "cannot advance"), and a late but passable one is
   not. *)
let cannot_advance name scenario =
  match Scenario.validate scenario with
  | Ok () -> Alcotest.failf "%s: accepted" name
  | Error e ->
      let sub = "cannot advance" in
      let n = String.length sub in
      let rec found i = i + n <= String.length e && (String.sub e i n = sub || found (i + 1)) in
      if not (found 0) then Alcotest.failf "%s: %s" name e

let passes name scenario =
  match Scenario.validate scenario with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let test_validate_pulse_horizon () =
  cannot_advance "1e15 s interval" (Scenario.make ~pulses:2 ~flap_interval:1e15 small_mesh);
  passes "1e13 s interval" (Scenario.make ~pulses:2 ~flap_interval:1e13 small_mesh);
  cannot_advance "custom pattern"
    (Scenario.make
       ~pattern:
         (Pulse.Custom
            [ { Pulse.at = 0.; kind = `Withdraw }; { Pulse.at = 1e300; kind = `Announce } ])
       small_mesh);
  Alcotest.(check bool) "runner refuses it too" true
    (match Runner.run (Scenario.make ~pulses:2 ~flap_interval:1e15 small_mesh) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let replay_at time =
  Scenario.Replay
    [ { Trace.time; prefix = 1; kind = Trace.Withdraw; origin = Some 4 } ]

let test_validate_replay_horizon () =
  cannot_advance "event at 1e300 s" (Scenario.make ~workload:(replay_at 1e300) small_mesh);
  passes "event at 1e6 s" (Scenario.make ~workload:(replay_at 1e6) small_mesh)

let flappers alpha =
  Scenario.Flappers { count = 200; flaps = 3; mean_gap = 60.; alpha; seed = 1 }

let test_validate_flapper_horizon () =
  cannot_advance "alpha 0.1" (Scenario.make ~workload:(flappers 0.1) small_mesh);
  (* Alpha 1.5 passes on its bound alone; alpha 0.5's bound is too loose,
     so its generated trace is checked, and passes. *)
  passes "alpha 1.5" (Scenario.make ~workload:(flappers 1.5) small_mesh);
  passes "alpha 0.5" (Scenario.make ~workload:(flappers 0.5) small_mesh)

let test_validate_fault_horizon () =
  let module F = Rfd_faults.Fault_plan in
  let at_link at = F.make ~link_events:[ { F.at; link = (0, 1); action = `Fail } ] () in
  cannot_advance "link event at 1e16 s" (Scenario.make ~faults:(at_link 1e16) small_mesh);
  passes "link event at 1e6 s" (Scenario.make ~faults:(at_link 1e6) small_mesh);
  let random window =
    F.make ~seed:7
      ~random_flaps:{ F.cycles = 3; window; down_mean = 30.; candidates = [] }
      ()
  in
  cannot_advance "random flaps in a 1e16 s window"
    (Scenario.make ~faults:(random 1e16) small_mesh);
  passes "random flaps in a 120 s window" (Scenario.make ~faults:(random 120.) small_mesh)

let test_scenario_make_rejects_eagerly () =
  Alcotest.check_raises "negative pulses"
    (Invalid_argument "Scenario.make: pulses must be non-negative (got -1)") (fun () ->
      ignore (Scenario.make ~pulses:(-1) small_mesh));
  Alcotest.check_raises "negative background prefixes"
    (Invalid_argument "Scenario.make: background_prefixes must be non-negative (got -3)")
    (fun () -> ignore (Scenario.make ~background_prefixes:(-3) small_mesh));
  Alcotest.check_raises "zero flap interval"
    (Invalid_argument "Scenario.make: flap_interval must be positive and finite (got 0)")
    (fun () -> ignore (Scenario.make ~flap_interval:0. small_mesh));
  Alcotest.check_raises "infinite flap interval"
    (Invalid_argument "Scenario.make: flap_interval must be positive and finite (got inf)")
    (fun () -> ignore (Scenario.make ~flap_interval:infinity small_mesh));
  Alcotest.check_raises "zero settle gap"
    (Invalid_argument "Scenario.make: settle_gap must be positive and finite (got 0)")
    (fun () -> ignore (Scenario.make ~settle_gap:0. small_mesh));
  Alcotest.check_raises "infinite settle gap"
    (Invalid_argument "Scenario.make: settle_gap must be positive and finite (got inf)")
    (fun () -> ignore (Scenario.make ~settle_gap:infinity small_mesh));
  Alcotest.check_raises "isp beyond topology"
    (Invalid_argument
       "Scenario.make: isp node 9 is out of range for a 9-node topology (want 0..8)")
    (fun () -> ignore (Scenario.make ~isp:(`Node 9) small_mesh));
  Alcotest.check_raises "negative isp"
    (Invalid_argument
       "Scenario.make: isp node -1 is out of range for a 9-node topology (want 0..8)")
    (fun () -> ignore (Scenario.make ~isp:(`Node (-1)) small_mesh));
  Alcotest.check_raises "tiny mesh"
    (Invalid_argument "Scenario.make: mesh needs rows, cols >= 3 (got 2x2)") (fun () ->
      ignore (Scenario.make (Scenario.Mesh { rows = 2; cols = 2 })));
  Alcotest.check_raises "internet with m >= nodes"
    (Invalid_argument "Scenario.make: internet needs 1 <= m < nodes (got nodes=4 m=4)")
    (fun () -> ignore (Scenario.make (Scenario.Internet { nodes = 4; m = 4 })));
  Alcotest.check_raises "empty custom graph"
    (Invalid_argument "Scenario.make: custom graph is empty") (fun () ->
      ignore (Scenario.make (Scenario.Custom (Rfd_topology.Graph.of_edges ~num_nodes:0 []))));
  (* boundary values stay accepted *)
  ignore (Scenario.make ~isp:(`Node 8) ~pulses:0 ~background_prefixes:0 small_mesh);
  ignore (Scenario.make (Scenario.Internet { nodes = 4; m = 3 }))

(* [make] and [validate] share their argument checks: a bad value passed
   to [make] and the same value written into a record by hand are refused
   in the same words. *)
let test_make_and_validate_agree () =
  let good = Scenario.make small_mesh in
  let flappers count =
    Scenario.Flappers { count; flaps = 1; mean_gap = 5.; alpha = 1.5; seed = 0 }
  in
  let agree name made hand_made =
    let from_make =
      match made () with
      | (_ : Scenario.t) -> Alcotest.fail (name ^ ": make accepted it")
      | exception Invalid_argument msg -> msg
    in
    Alcotest.(check (result unit string))
      name
      (Error (String.sub from_make 15 (String.length from_make - 15)))
      (Scenario.validate hand_made);
    Alcotest.(check string) (name ^ ": make's prefix") "Scenario.make: "
      (String.sub from_make 0 15)
  in
  agree "negative pulses"
    (fun () -> Scenario.make ~pulses:(-1) small_mesh)
    { good with Scenario.pulses = -1 };
  agree "negative background prefixes"
    (fun () -> Scenario.make ~background_prefixes:(-3) small_mesh)
    { good with Scenario.background_prefixes = -3 };
  agree "infinite flap interval"
    (fun () -> Scenario.make ~flap_interval:infinity small_mesh)
    { good with Scenario.flap_interval = infinity };
  agree "NaN settle gap"
    (fun () -> Scenario.make ~settle_gap:Float.nan small_mesh)
    { good with Scenario.settle_gap = Float.nan };
  agree "isp beyond topology"
    (fun () -> Scenario.make ~isp:(`Node 9) small_mesh)
    { good with Scenario.isp = `Node 9 };
  agree "tiny mesh"
    (fun () -> Scenario.make (Scenario.Mesh { rows = 2; cols = 2 }))
    { good with Scenario.topology = Scenario.Mesh { rows = 2; cols = 2 } };
  agree "internet with m >= nodes"
    (fun () -> Scenario.make (Scenario.Internet { nodes = 4; m = 4 }))
    { good with Scenario.topology = Scenario.Internet { nodes = 4; m = 4 } };
  agree "negative flapper count"
    (fun () -> Scenario.make ~workload:(flappers (-1)) small_mesh)
    { good with Scenario.workload = flappers (-1) }

let test_run_no_damping () =
  let scenario = Scenario.make ~name:"plain" ~config:(fast ~damping:false ()) small_mesh in
  let r = Runner.run scenario in
  Alcotest.(check int) "10 nodes with stub" 10 r.Runner.num_nodes;
  Alcotest.(check int) "origin is appended node" 9 r.Runner.origin;
  Alcotest.(check int) "isp is node 0 by default" 0 r.Runner.isp;
  Alcotest.(check bool) "tup positive" true (r.Runner.tup > 0.);
  Alcotest.(check bool) "messages flowed" true (r.Runner.message_count > 0);
  (* without damping a single pulse converges quickly *)
  Alcotest.(check bool) "fast convergence" true (r.Runner.convergence_time < 60.);
  Alcotest.(check int) "no suppressions" 0 (Collector.suppress_events r.Runner.collector)

let test_run_with_damping_extends_convergence () =
  (* The paper's mechanism: a reuse that changes a best path re-opens
     routing long after the last flap, so convergence stretches past that
     release. A suppression whose reuse changes nothing extends nothing, so
     suppressions alone are no guard. *)
  let noisy =
    List.filter
      (fun pulses ->
        let run config = Runner.run (Scenario.make ~pulses ~config small_mesh) in
        let damp = run (fast ()) in
        let has_noisy_reuse = Collector.noisy_reuse_events damp.Runner.collector > 0 in
        if has_noisy_reuse then
          Alcotest.(check bool)
            (Printf.sprintf "pulses=%d: damping slower than plain" pulses)
            true
            (damp.Runner.convergence_time
            > (run (fast ~damping:false ())).Runner.convergence_time);
        has_noisy_reuse)
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "some pulse count exercises a noisy reuse" true (noisy <> [])

let test_run_zero_pulses () =
  let r = Runner.run (Scenario.make ~pulses:0 ~config:(fast ()) small_mesh) in
  Alcotest.(check int) "no flap messages" 0 r.Runner.message_count;
  Alcotest.(check (float 0.)) "no convergence delay" 0. r.Runner.convergence_time

let test_determinism () =
  let scenario = Scenario.make ~config:(fast ()) ~pulses:2 small_mesh in
  let a = Runner.run scenario and b = Runner.run scenario in
  Alcotest.(check int) "same messages" a.Runner.message_count b.Runner.message_count;
  Alcotest.(check (float 1e-9)) "same convergence" a.Runner.convergence_time
    b.Runner.convergence_time

(* [reuse_timer_events] is read from the simulator's reuse and wheel
   channels. These counts were pinned when each router still counted its
   own timers; both ways agree at P = 1 and 2 in every damping and reuse
   mode. *)
let test_reuse_timer_events_pinned () =
  let mesh = Scenario.Mesh { rows = 4; cols = 4 } in
  List.iter
    (fun (label, config, expected) ->
      let scenario = Scenario.make ~config ~pulses:3 mesh in
      Alcotest.(check int) (label ^ " at P=1") expected
        (Runner.run scenario).Runner.reuse_timer_events;
      Alcotest.(check int) (label ^ " at P=2") expected
        (fst (Runner.run_partitioned ~partitions:2 scenario)).Runner.reuse_timer_events)
    [
      ("exact", fast (), 101);
      ( "tick 15 s",
        { (fast ()) with Config.reuse_mode = Config.Tick 15. },
        47 );
      ("rcn", fast ~mode:Config.Rcn (), 55);
      ("selective", fast ~mode:Config.Selective (), 102);
    ]

let test_seed_changes_run () =
  let config = fast () in
  let a = Runner.run (Scenario.make ~config ~pulses:2 small_mesh) in
  let config_b = { config with Config.seed = 4711 } in
  let b = Runner.run (Scenario.make ~config:config_b ~pulses:2 small_mesh) in
  (* jitter differs; counts almost surely differ at least slightly *)
  Alcotest.(check bool) "different seeds differ" true
    (a.Runner.message_count <> b.Runner.message_count
    || a.Runner.convergence_time <> b.Runner.convergence_time)

let test_collector_series_consistency () =
  let r = Runner.run (Scenario.make ~config:(fast ()) ~pulses:2 small_mesh) in
  let c = r.Runner.collector in
  Alcotest.(check int) "series length = message count" (Collector.update_count c)
    (Array.length (Collector.update_times c));
  Alcotest.(check int) "reuse series matches events" (Collector.reuse_events c)
    (Array.length (Collector.reuse_times c));
  Alcotest.(check int) "suppress/reuse balance" (Collector.suppress_events c)
    (Collector.reuse_events c);
  Alcotest.(check int) "nothing damped at the end" 0 (Collector.damped_now c);
  Alcotest.(check bool) "noisy <= total reuses" true
    (Collector.noisy_reuse_events c <= Collector.reuse_events c);
  let log = Collector.reuse_log c in
  Alcotest.(check int) "reuse log length" (Collector.reuse_events c) (List.length log);
  Alcotest.(check int) "noisy entries in log" (Collector.noisy_reuse_events c)
    (List.length (List.filter (fun (_, _, _, noisy) -> noisy) log));
  (* log is time-ordered *)
  let times = List.map (fun (t, _, _, _) -> t) log in
  Alcotest.(check bool) "log sorted" true (times = List.sort Float.compare times)

(* The reference model of the reuse log: a newest-first list in which a
   release moves past the same-instant releases of higher routers. *)
let rec model_log_reuse ((time, router, _, _) as entry) = function
  | ((time', router', _, _) as newer) :: older when time' = time && router' > router ->
      newer :: model_log_reuse entry older
  | log -> entry :: log

(* Random streams of suppressions and releases at few distinct instants
   and few routers, so same-instant ties across routers are common; a
   collector may be trimmed part way, and must keep logging after. *)
let prop_reuse_columns_match_list_model =
  let event =
    QCheck.Gen.(
      quad (int_bound 3) (int_bound 5) (int_bound 5)
        (pair bool (frequency [ (3, return `Reuse); (1, return `Suppress) ])))
  in
  QCheck.Test.make ~count:300 ~name:"reuse columns = list model of log_reuse"
    QCheck.(make Gen.(pair (list_size (int_bound 150) event) (int_bound 150)))
    (fun (events, trim_at) ->
      let c = Collector.create () in
      let hooks = Hooks.create () in
      Collector.attach c hooks;
      let prefix = Prefix.v 0 in
      let time = ref 0. and log = ref [] and first = ref None in
      List.iteri
        (fun i (step, router, peer, (noisy, kind)) ->
          if i = trim_at then Collector.trim c;
          time := !time +. (float_of_int step *. 0.5);
          let time = !time in
          match kind with
          | `Suppress -> hooks.Hooks.on_suppress ~time ~router ~peer ~prefix
          | `Reuse ->
              hooks.Hooks.on_reuse ~time ~router ~peer ~prefix ~noisy;
              log := model_log_reuse (time, router, peer, noisy) !log;
              if !first = None then first := Some time)
        events;
      let model = List.rev !log in
      let agrees () =
        Collector.reuse_log c = model
        && Collector.reuse_events c = List.length model
        && Collector.noisy_reuse_events c
           = List.length (List.filter (fun (_, _, _, noisy) -> noisy) model)
        && Collector.first_reuse_time c = !first
        && Array.to_list (Collector.reuse_times c) = List.map (fun (t, _, _, _) -> t) model
      in
      let before = agrees () in
      Collector.trim c;
      before && agrees ())

(* A result whose collector was fed by hand through its hooks: [steps]
   deliveries, a suppression and release per tenth delivery (router and
   peer from the step), and penalties of two probed pairs. [change] may
   rewrite a step's delivery time ([`Delivery]), a release's peer
   ([`Peer]) or a penalty ([`Penalty]) to perturb single cells. *)
let collector_of ?(change = fun _ x -> x) ?(probes = []) steps =
  let c = Collector.create ~probe_pairs:[ (1, 2); (3, 4) ] () in
  let hooks = Hooks.create () in
  Collector.attach c hooks;
  let prefix = Prefix.v 0 in
  let update = Update.withdraw prefix in
  for i = 0 to steps - 1 do
    let time = change (`Delivery i) (float_of_int i) in
    hooks.Hooks.on_deliver ~time ~src:0 ~dst:1 update;
    if i mod 10 = 0 then begin
      let router = i mod 7 in
      hooks.Hooks.on_suppress ~time ~router ~peer:1 ~prefix;
      hooks.Hooks.on_penalty ~time ~router:1 ~peer:2 ~prefix
        ~penalty:(change (`Penalty i) (float_of_int (i mod 997)));
      hooks.Hooks.on_reuse ~time ~router
        ~peer:(int_of_float (change (`Peer i) 1.))
        ~prefix ~noisy:(i mod 20 = 0)
    end
  done;
  List.iter
    (fun (router, peer, time, penalty) ->
      hooks.Hooks.on_penalty ~time ~router ~peer ~prefix ~penalty)
    probes;
  c

let small_result = lazy (Runner.run (Scenario.make ~config:(fast ()) ~pulses:2 small_mesh))
let with_collector c = { (Lazy.force small_result) with Runner.collector = c }

(* The head marshals each column's length and the words follow, so where
   the columns' chunks end, how much spare capacity they have and which
   domain hashes them do not matter: 9,000 deliveries cross a chunk and
   a buffer-load. *)
let test_result_digest_trim () =
  let untrimmed = with_collector (collector_of 9000) in
  let trimmed = collector_of 9000 in
  Collector.trim trimmed;
  let trimmed = with_collector trimmed in
  let digest = Runner.result_digest untrimmed in
  Alcotest.(check string) "trimmed = untrimmed" digest (Runner.result_digest trimmed);
  Alcotest.(check string) "second domain" digest
    (Domain.join (Domain.spawn (fun () -> Runner.result_digest trimmed)));
  let r = Lazy.force small_result in
  Alcotest.(check string) "a run's own result, trimmed again" (Runner.result_digest r)
    (Collector.trim r.Runner.collector;
     Runner.result_digest r)

(* One changed cell changes the digest, in every column, at the start of a
   column and at its end, in a chunk past the first and in a buffer-load
   past the first. So does moving probe samples from the end of one
   series to the start of the next while every word stays in place: only
   the column lengths in the head tell those two apart. *)
let test_result_digest_cells () =
  let steps = 9000 in
  let base = Runner.result_digest (with_collector (collector_of steps)) in
  let changed what =
    let change step x = if step = what then x +. 1. else x in
    Runner.result_digest (with_collector (collector_of ~change steps))
  in
  List.iter
    (fun (name, what) ->
      if changed what = base then Alcotest.failf "changing %s left the digest unchanged" name)
    [
      ("an early delivery time", `Delivery 1);
      ("a delivery time in the second chunk", `Delivery 8500);
      ("the last delivery time", `Delivery (steps - 1));
      ("the last release's peer", `Peer (steps - 10));
      ("the first release's peer", `Peer 0);
      ("the last probed penalty", `Penalty (steps - 10));
    ];
  let gauge = collector_of 3 in
  let hooks = Hooks.create () in
  Collector.attach gauge hooks;
  hooks.Hooks.on_suppress ~time:5. ~router:0 ~peer:1 ~prefix:(Prefix.v 0);
  if
    Runner.result_digest (with_collector gauge)
    = Runner.result_digest (with_collector (collector_of 3))
  then Alcotest.fail "a damped-gauge sample left the digest unchanged";
  (* Probe (1, 2) then (3, 4); every series writes its times, then its
     values. 1 2 | 2 3 | 3 | 5 and 1 | 2 | 2 3 | 3 5 are the same words. *)
  let probed samples = with_collector (collector_of ~probes:samples 0) in
  let ending = probed [ (1, 2, 1., 2.); (1, 2, 2., 3.); (3, 4, 3., 5.) ] in
  let starting = probed [ (1, 2, 1., 2.); (3, 4, 2., 3.); (3, 4, 3., 5.) ] in
  if Runner.result_digest ending = Runner.result_digest starting then
    Alcotest.fail "moving a sample between series left the digest unchanged"

(* Cells stream through the domain's buffer: once it exists, a digest
   allocates a few small values per buffer-load, never the result's size
   (3.3 MB of delivery times here). A head beyond the buffer is hashed
   across loads, and leaves the buffer fit for reuse. *)
let test_result_digest_buffer () =
  let small = Lazy.force small_result in
  let small_digest = Runner.result_digest small in
  let named first last =
    let scenario = small.Runner.scenario in
    let name = first ^ String.make Runner.digest_buffer_bytes 'x' ^ last in
    { small with Runner.scenario = { scenario with Scenario.name } }
  in
  let wide = Runner.result_digest (named "a" "a") in
  Alcotest.(check string) "a wide head twice" wide (Runner.result_digest (named "a" "a"));
  if Runner.result_digest (named "b" "a") = wide || Runner.result_digest (named "a" "b") = wide
  then Alcotest.fail "a wide head's first or last load left the digest unchanged";
  Alcotest.(check string) "buffer reused after a wide head" small_digest
    (Runner.result_digest small);
  Alcotest.(check (pair string string)) "second domain" (small_digest, wide)
    (Domain.join
       (Domain.spawn (fun () ->
            (Runner.result_digest small, Runner.result_digest (named "a" "a")))));
  let big = with_collector (collector_of 410_000) in
  let digest = Runner.result_digest big in
  (* Minor words, plus words allocated straight into the major heap (its
     allocations that no minor collection promoted). *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  let again = Sys.opaque_identity (Runner.result_digest big) in
  let allocated = 8. *. (words () -. before) in
  Alcotest.(check string) "same digest" digest again;
  if allocated >= 65536. then
    Alcotest.failf "digest of a 410,000-delivery result allocated %.0f bytes" allocated

let test_stable_and_quiet_metrics () =
  (* With damping, suppressed entries hold reuse timers long after routing
     settles: time-to-quiet must strictly exceed time-to-stable. The run
     drains fully, so the final oracle status is always Quiet. *)
  let r = Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 small_mesh) in
  Alcotest.(check bool) "stable >= 0" true (r.Runner.time_to_stable >= 0.);
  Alcotest.(check bool) "quiet >= stable" true
    (r.Runner.time_to_quiet >= r.Runner.time_to_stable);
  Alcotest.(check bool) "drained run ends quiet" true
    (Oracle.is_quiet (Runner.status_level r.Runner.final_status));
  Alcotest.(check bool) "drained run is not budget-limited" true
    (not (Runner.status_is_budget_exceeded r.Runner.final_status));
  if Collector.suppress_events r.Runner.collector > 0 then
    Alcotest.(check bool) "reuse timers outlast routing stability" true
      (r.Runner.time_to_quiet > r.Runner.time_to_stable);
  (* without damping there are no reuse timers: the metrics coincide *)
  let plain = Runner.run (Scenario.make ~config:(fast ~damping:false ()) ~pulses:1 small_mesh) in
  Alcotest.(check (float 1e-9)) "no damping: quiet = stable" plain.Runner.time_to_stable
    plain.Runner.time_to_quiet

let test_run_budgets () =
  let scenario = Scenario.make ~config:(fast ()) ~pulses:2 small_mesh in
  let full = Runner.run scenario in
  Alcotest.(check string) "drained status prints the bare level" "quiet"
    (Runner.status_to_string full.Runner.final_status);
  (* Event budget: cut the run off well before it drains. The cap is a
     total over all phases, checked at epoch barriers, so the run stops at
     the first barrier at or past it. *)
  let cap = full.Runner.sim_events / 4 in
  let partial = Runner.run ~budget:(Runner.budget ~max_events:cap ()) scenario in
  Alcotest.(check bool) "event budget trips" true
    (Runner.status_is_budget_exceeded partial.Runner.final_status);
  Alcotest.(check bool) "ran up to the cap" true (cap <= partial.Runner.sim_events);
  Alcotest.(check bool) "stopped before draining" true
    (partial.Runner.sim_events < full.Runner.sim_events);
  let s = Runner.status_to_string partial.Runner.final_status in
  Alcotest.(check bool)
    (Printf.sprintf "status string marks the budget (%s)" s)
    true
    (String.length s > 16 && String.sub s 0 16 = "budget-exceeded(");
  (* Sim-time budget: the horizon lands inside the settle gap, before the
     first flap. *)
  let timed = Runner.run ~budget:(Runner.budget ~max_sim_time:5. ()) scenario in
  Alcotest.(check bool) "time budget trips" true
    (Runner.status_is_budget_exceeded timed.Runner.final_status);
  Alcotest.(check int) "nothing measured in the flap phase" 0
    timed.Runner.message_count;
  (* A generous budget must leave the run bit-identical to an unbudgeted
     one. *)
  let generous =
    Runner.run
      ~budget:(Runner.budget ~max_events:(full.Runner.sim_events * 2) ~max_sim_time:1e9 ())
      scenario
  in
  Alcotest.(check bool) "generous budget finishes" true
    (not (Runner.status_is_budget_exceeded generous.Runner.final_status));
  Alcotest.(check int) "generous budget: same events" full.Runner.sim_events
    generous.Runner.sim_events;
  Alcotest.(check int) "generous budget: same messages" full.Runner.message_count
    generous.Runner.message_count;
  Alcotest.check_raises "zero max_events rejected"
    (Invalid_argument "Runner.budget: max_events must be positive") (fun () ->
      ignore (Runner.budget ~max_events:0 ()));
  Alcotest.check_raises "negative max_sim_time rejected"
    (Invalid_argument "Runner.budget: max_sim_time must be positive") (fun () ->
      ignore (Runner.budget ~max_sim_time:(-1.) ()))

let test_internet_topology_random_isp () =
  let scenario =
    Scenario.make ~name:"internet"
      ~config:(fast ~damping:false ())
      ~isp:`Random (Scenario.Internet { nodes = 30; m = 2 })
  in
  let r = Runner.run scenario in
  Alcotest.(check int) "31 nodes with stub" 31 r.Runner.num_nodes;
  Alcotest.(check bool) "isp within base graph" true (r.Runner.isp >= 0 && r.Runner.isp < 30);
  Alcotest.(check bool) "converged fast" true (r.Runner.convergence_time < 120.)

let test_no_valley_policy_runs () =
  let scenario =
    Scenario.make ~policy:Scenario.No_valley
      ~config:(fast ~damping:false ())
      (Scenario.Internet { nodes = 30; m = 2 })
  in
  let r = Runner.run scenario in
  (* valley-free reachability to a stub customer is still universal *)
  Alcotest.(check bool) "messages flowed" true (r.Runner.message_count > 0)

let test_probe_at_distance () =
  let scenario =
    Scenario.make ~config:(fast ()) ~probe:(Scenario.At_distance 2) small_mesh
  in
  let r = Runner.run scenario in
  let pairs = Collector.probed_pairs r.Runner.collector in
  Alcotest.(check bool) "probe pairs resolved" true (pairs <> [])

let test_spans_cover_episode () =
  let r = Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 small_mesh) in
  match r.Runner.spans with
  | [] -> Alcotest.fail "spans expected"
  | first :: _ ->
      Alcotest.(check (float 1e-6)) "starts at flap" r.Runner.flap_start first.Phases.start_time;
      let last = List.nth r.Runner.spans (List.length r.Runner.spans - 1) in
      Alcotest.(check bool) "ends converged" true
        (last.Phases.kind = Phases.Converged && last.Phases.end_time = infinity)

let test_sweep () =
  let base = Scenario.make ~name:"sweep" ~config:(fast ~damping:false ()) small_mesh in
  let sweep = Sweep.run ~pulses:[ 1; 2; 3 ] base in
  Alcotest.(check int) "three points" 3 (List.length sweep.Sweep.points);
  let msgs = Sweep.message_series sweep in
  Alcotest.(check int) "series length" 3 (List.length msgs);
  (* without damping, messages grow with pulses *)
  let values = List.map snd msgs in
  Alcotest.(check bool) "monotone-ish growth" true
    (List.nth values 2 > List.hd values)

let test_link_state_mechanism () =
  (* Flapping the physical (isp, origin) link instead of the origin's
     prefix must produce the same qualitative damping behaviour: the isp
     entry charges 1000 per pulse (session withdrawal) and suppresses at
     the third pulse. *)
  let run mechanism pulses =
    Runner.run (Scenario.make ~config:(fast ()) ~mechanism ~pulses small_mesh)
  in
  let by_link = run Scenario.Link_state 3 in
  let by_updates = run Scenario.Origin_updates 3 in
  Alcotest.(check bool) "link flaps reconverge" true
    (by_link.Runner.convergence_time > 0.);
  (* both mechanisms end fully reachable *)
  Alcotest.(check bool) "suppression happened via link flaps" true
    (Collector.suppress_events by_link.Runner.collector > 0);
  Alcotest.(check bool) "suppression happened via update flaps" true
    (Collector.suppress_events by_updates.Runner.collector > 0);
  (* the dominating reuse delay is the isp's in both cases: same order *)
  let ratio = by_link.Runner.convergence_time /. by_updates.Runner.convergence_time in
  Alcotest.(check bool)
    (Printf.sprintf "same order of magnitude (ratio %.2f)" ratio)
    true
    (ratio > 0.3 && ratio < 3.)

let test_background_prefixes () =
  (* A populated multi-prefix RIB must not change the flapping prefix's
     damping dynamics, and the flaps must not damp the stable prefixes. *)
  let plain = Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 small_mesh) in
  let loaded =
    Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 ~background_prefixes:5 small_mesh)
  in
  (* background traffic consumes link-jitter randomness, so runs are not
     bit-identical — but stable prefixes are silent during the flap phase
     and damping is per (peer, prefix), so the dynamics must be the same
     in kind and magnitude *)
  let ratio a b = if b = 0. then 1. else a /. b in
  Alcotest.(check bool) "suppression happens in both" true
    (Collector.suppress_events plain.Runner.collector > 0
    && Collector.suppress_events loaded.Runner.collector > 0);
  let conv_ratio = ratio loaded.Runner.convergence_time plain.Runner.convergence_time in
  Alcotest.(check bool)
    (Printf.sprintf "same magnitude convergence (ratio %.2f)" conv_ratio)
    true
    (conv_ratio > 0.5 && conv_ratio < 2.);
  let msg_ratio =
    ratio (float_of_int loaded.Runner.message_count) (float_of_int plain.Runner.message_count)
  in
  Alcotest.(check bool)
    (Printf.sprintf "same magnitude messages (ratio %.2f)" msg_ratio)
    true
    (msg_ratio > 0.5 && msg_ratio < 2.);
  Alcotest.(check bool) "validation" true
    (Result.is_error
       (Scenario.validate
          { (Scenario.make small_mesh) with Scenario.background_prefixes = -1 }))

let test_custom_topology () =
  let g = Rfd_topology.Builders.ring 5 in
  let r =
    Runner.run (Scenario.make ~config:(fast ~damping:false ()) (Scenario.Custom g))
  in
  Alcotest.(check int) "ring + stub" 6 r.Runner.num_nodes

let suite =
  [
    Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
    Alcotest.test_case "scenario make rejects eagerly" `Quick
      test_scenario_make_rejects_eagerly;
    Alcotest.test_case "make and validate word a problem alike" `Quick
      test_make_and_validate_agree;
    Alcotest.test_case "validate: pulses that cannot advance" `Quick
      test_validate_pulse_horizon;
    Alcotest.test_case "validate: replay that cannot advance" `Quick
      test_validate_replay_horizon;
    Alcotest.test_case "validate: flappers that cannot advance" `Quick
      test_validate_flapper_horizon;
    Alcotest.test_case "validate: faults that cannot advance" `Quick
      test_validate_fault_horizon;
    Alcotest.test_case "run budgets" `Quick test_run_budgets;
    Alcotest.test_case "run without damping" `Quick test_run_no_damping;
    Alcotest.test_case "damping extends convergence" `Quick
      test_run_with_damping_extends_convergence;
    Alcotest.test_case "zero pulses" `Quick test_run_zero_pulses;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "reuse timer events pinned per mode" `Quick
      test_reuse_timer_events_pinned;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_run;
    Alcotest.test_case "collector consistency" `Quick test_collector_series_consistency;
    QCheck_alcotest.to_alcotest prop_reuse_columns_match_list_model;
    Alcotest.test_case "result digest in a reused buffer" `Quick test_result_digest_buffer;
    Alcotest.test_case "result digest: trimmed = untrimmed" `Quick test_result_digest_trim;
    Alcotest.test_case "result digest: every cell and length" `Quick test_result_digest_cells;
    Alcotest.test_case "stable vs quiet metrics" `Quick test_stable_and_quiet_metrics;
    Alcotest.test_case "internet topology, random isp" `Quick test_internet_topology_random_isp;
    Alcotest.test_case "no-valley policy" `Quick test_no_valley_policy_runs;
    Alcotest.test_case "probe resolution" `Quick test_probe_at_distance;
    Alcotest.test_case "spans cover episode" `Quick test_spans_cover_episode;
    Alcotest.test_case "sweep over pulse counts" `Quick test_sweep;
    Alcotest.test_case "link-state flap mechanism" `Quick test_link_state_mechanism;
    Alcotest.test_case "background prefixes" `Quick test_background_prefixes;
    Alcotest.test_case "custom topology" `Quick test_custom_topology;
  ]
