(* Slot columns grow past [Config.prefix_table_hint]: a run whose prefix
   ids exceed the hint by several doublings is the same simulation, with
   the same inspection answers, as one whose hint covers every id —
   including when the columns grow while reuse timers are pending, when
   each of two partitions' arenas widens on its own, and when one arena
   holds routers of uneven degree, two damping settings and routers that
   do not damp. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Trace = Rfd_experiment.Trace
module Sim = Rfd_engine.Sim
module Params = Rfd_damping.Params
open Rfd_bgp

let mesh = Scenario.Mesh { rows = 3; cols = 3 }

let config ?mode ?(deployment = Config.Everywhere) ?(overrides = []) ~hint ~reuse () =
  let base =
    {
      Config.default with
      Config.mrai = 1.;
      link_delay = 0.01;
      link_jitter = 0.01;
      prefix_table_hint = hint;
    }
  in
  {
    (Config.with_damping ?mode ~reuse ~deployment Params.cisco base) with
    Config.damping_overrides = overrides;
  }

(* The routers a partition's network owns. *)
let owned net =
  List.filter_map
    (fun node ->
      match Network.router net node with
      | r -> Some (node, r)
      | exception Invalid_argument _ -> None)
    (List.init (Network.num_routers net) Fun.id)

(* Every inspection answer of a router, as text. *)
let inspect node r =
  let buf = Buffer.create 256 in
  let known = Router.known_prefixes r in
  let a = Router.activity r in
  Printf.bprintf buf "router %d: known=[%s] suppressed=%d activity=%d/%d/%d\n" node
    (String.concat "," (List.map (fun p -> string_of_int (Prefix.to_int p)) known))
    (Router.suppressed_count r) a.Oracle.mrai_pending a.Oracle.scheduled_flushes
    a.Oracle.reuse_timers;
  List.iter
    (fun peer ->
      List.iter
        (fun p ->
          Printf.bprintf buf "  %d/%d: penalty=%h suppressed=%b route=%s\n" peer
            (Prefix.to_int p) (Router.penalty r ~peer p) (Router.is_suppressed r ~peer p)
            (match Router.rib_in_route r ~peer p with
            | Some route -> Format.asprintf "%a" Route.pp route
            | None -> "-"))
        known)
    (Router.peer_ids r);
  Buffer.contents buf

(* The latest clock of the partitions' networks. *)
let latest shards =
  List.fold_left (fun acc (n, _, _) -> Float.max acc (Sim.now (Network.sim n))) 0. shards

(* Run [scenario] on [partitions] partitions, inspecting every router at
   [at] seconds into the flap phase and at the end. Every partition
   inspects its own routers at the same instants, counted from the latest
   partition clock when the flap phase starts, into records of its own:
   partitions may run in parallel. At the end, every partition's clock is
   brought to the latest one first, since a penalty reads as of now.
   Returns the result, the inspection text in (instant, node) order and
   the reuse timers pending network-wide at each inspection instant. *)
let observed ~partitions ~at scenario =
  let points = List.length at in
  let shards = ref [] in
  let record texts point net =
    List.iter (fun (node, r) -> texts := ((point, node), inspect node r) :: !texts) (owned net)
  in
  let observe net =
    shards := (net, ref [], Array.make points 0) :: !shards;
    if List.length !shards = partitions then begin
      let start = latest !shards in
      List.iter
        (fun (n, texts, pending) ->
          let sim = Network.sim n in
          let ch =
            Sim.channel sim (fun _ point ->
                List.iter
                  (fun (_, r) ->
                    pending.(point) <- pending.(point) + (Router.activity r).Oracle.reuse_timers)
                  (owned n);
                record texts point n)
          in
          List.iteri (fun point dt -> Sim.post sim ch ~time:(start +. dt) point) at)
        !shards
    end
  in
  let result, _ = Runner.run_partitioned ~observe ~partitions scenario in
  let finish = latest !shards in
  List.iter
    (fun (n, texts, _) ->
      Sim.advance_clock (Network.sim n) ~time:finish;
      record texts points n)
    !shards;
  let texts = List.concat_map (fun (_, texts, _) -> !texts) !shards in
  let text = String.concat "" (List.map snd (List.sort compare texts)) in
  let pending =
    List.init points (fun point ->
        List.fold_left (fun acc (_, _, pending) -> acc + pending.(point)) 0 !shards)
  in
  (result, text, pending)

(* The narrow run (hint 1) against the wide one ([reference]), at each
   partition count; the inspection answers and pending timers must also
   be the same at every partition count. Returns the pending timers. *)
let same_run ~label ~reference ~at make =
  let runs =
    List.map
      (fun partitions ->
        let label = Printf.sprintf "%s, P=%d" label partitions in
        let wide, wide_text, wide_pending = observed ~partitions ~at (make ~hint:reference) in
        let narrow, narrow_text, narrow_pending = observed ~partitions ~at (make ~hint:1) in
        let normalized r = Runner.result_digest { r with Runner.scenario = wide.Runner.scenario } in
        Alcotest.(check bool) (label ^ ": hints differ") true
          (narrow.Runner.scenario <> wide.Runner.scenario);
        Alcotest.(check string) (label ^ ": digest") (normalized wide) (normalized narrow);
        Alcotest.(check string) (label ^ ": inspection answers") wide_text narrow_text;
        Alcotest.(check (list int)) (label ^ ": pending reuse timers") wide_pending narrow_pending;
        (narrow_text, narrow_pending))
      [ 1; 2 ]
  in
  match runs with
  | [ (text, pending); (text2, pending2) ] ->
      Alcotest.(check string) (label ^ ": inspection answers at P=1 and 2") text text2;
      Alcotest.(check (list int)) (label ^ ": pending reuse timers at P=1 and 2") pending pending2;
      pending
  | _ -> assert false

let modes = [ ("exact", Config.Exact); ("tick", Config.Tick 15.) ]

let flappers = Scenario.Flappers { count = 8; flaps = 2; mean_gap = 30.; alpha = 1.5; seed = 7 }

(* 40 background prefixes and 8 flappers above them: ids up to 48, five
   doublings past a hint of 1. RCN mode adds each session's root-cause
   history to the state that must survive growth. *)
let test_growth_past_hint () =
  List.iter
    (fun (label, mode, reuse) ->
      let make ~hint =
        Scenario.make ~name:"growth" ~config:(config ?mode ~hint ~reuse ()) ~pulses:3
          ~background_prefixes:40 ~workload:flappers mesh
      in
      ignore (same_run ~label ~reference:64 ~at:[ 100.; 400.; 2000. ] make))
    (("rcn", Some Config.Rcn, Config.Exact)
    :: List.map (fun (label, reuse) -> (label, None, reuse)) modes)

(* The origin prefix is suppressed by the pulse train; then a replay
   announces prefixes far above every column's capacity, so the columns
   grow while reuse timers for prefix 0's slots are pending. Prefix 40
   flaps until it is suppressed too, and again after the last widen: in
   Tick mode a charge on a suppressed entry moves it to a later bucket,
   which reads the bucket it is in from its widened cell. In RCN mode a
   released slot re-exports with the root cause it last received, so
   that cell must survive the widen too. *)
let test_growth_with_pending_reuse () =
  let trace =
    List.map
      (fun (time, prefix, kind, origin) -> { Trace.time; prefix; kind; origin = Some origin })
      [
        (400., 40, Trace.Announce, 4);
        (420., 100, Trace.Announce, 8);
        (440., 40, Trace.Withdraw, 4);
        (460., 40, Trace.Announce, 4);
        (480., 40, Trace.Withdraw, 4);
        (500., 40, Trace.Announce, 4);
        (520., 40, Trace.Withdraw, 4);
        (540., 40, Trace.Announce, 4);
        (560., 129, Trace.Announce, 2);
        (580., 40, Trace.Withdraw, 4);
        (600., 40, Trace.Announce, 4);
      ]
  in
  List.iter
    (fun (label, mode, reuse) ->
      let make ~hint =
        Scenario.make ~name:"growth" ~config:(config ?mode ~hint ~reuse ()) ~pulses:3
          ~workload:(Scenario.Replay trace) mesh
      in
      let pending = same_run ~label ~reference:256 ~at:[ 399.; 3000. ] make in
      match pending with
      | before_growth :: _ ->
          Alcotest.(check bool)
            (label ^ ": reuse timers pending while the columns grow")
            true (before_growth > 0)
      | [] -> Alcotest.fail "no inspection ran")
    (("rcn", Some Config.Rcn, Config.Exact)
    :: List.map (fun (label, reuse) -> (label, None, reuse)) modes)

(* One arena, many shapes: a 24-node Barabási–Albert graph gives routers
   of uneven degree, half the routers damp, and one of those damps with
   Juniper's parameters instead of Cisco's. *)
let juniper_router = 2

let test_growth_mixed_layout () =
  List.iter
    (fun (label, reuse) ->
      let make ~hint =
        Scenario.make ~name:"growth"
          ~config:
            (config ~deployment:(Config.Fraction 0.5)
               ~overrides:[ (juniper_router, Params.juniper) ]
               ~hint ~reuse ())
          ~pulses:3 ~background_prefixes:40 ~workload:flappers
          (Scenario.Internet { nodes = 24; m = 2 })
      in
      let settings = ref [] and degrees = ref [] in
      let survey net =
        List.iter
          (fun (node, r) ->
            settings := (node, Router.damping_params r) :: !settings;
            degrees := List.length (Router.peer_ids r) :: !degrees)
          (owned net)
      in
      ignore (Runner.run ~observe:survey (make ~hint:1));
      let with_params p = List.filter (fun (_, q) -> q = p) !settings in
      Alcotest.(check bool)
        (label ^ ": the override router damps with Juniper's parameters")
        true
        (List.assoc juniper_router !settings = Some Params.juniper);
      Alcotest.(check bool) (label ^ ": other routers damp with Cisco's") true
        (with_params (Some Params.cisco) <> []);
      Alcotest.(check bool) (label ^ ": some routers do not damp") true (with_params None <> []);
      Alcotest.(check bool) (label ^ ": degrees are uneven") true
        (List.fold_left max 0 !degrees >= 3 * List.fold_left min max_int !degrees);
      ignore (same_run ~label ~reference:64 ~at:[ 100.; 400.; 2000. ] make))
    modes

let suite =
  [
    Alcotest.test_case "growth past the hint is invisible" `Quick test_growth_past_hint;
    Alcotest.test_case "growth with reuse timers pending" `Quick test_growth_with_pending_reuse;
    Alcotest.test_case "growth over a mixed layout" `Quick test_growth_mixed_layout;
  ]
