(* Router slot tables grow past [Config.prefix_table_hint]: a run whose
   prefix ids exceed the hint by several doublings is the same simulation,
   with the same inspection answers, as one whose hint covers every id —
   including when a session's columns grow while its reuse timers are
   pending. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Trace = Rfd_experiment.Trace
open Rfd_bgp

let mesh = Scenario.Mesh { rows = 3; cols = 3 }

let config ?mode ~hint ~reuse () =
  let base =
    {
      Config.default with
      Config.mrai = 1.;
      link_delay = 0.01;
      link_jitter = 0.01;
      prefix_table_hint = hint;
    }
  in
  Config.with_damping ?mode ~reuse Rfd_damping.Params.cisco base

(* Every inspection answer of every router, as text. *)
let inspect buf net =
  for node = 0 to Network.num_routers net - 1 do
    let r = Network.router net node in
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
      (Router.peer_ids r)
  done

let reuse_timers net =
  let total = ref 0 in
  for node = 0 to Network.num_routers net - 1 do
    total := !total + (Router.activity (Network.router net node)).Oracle.reuse_timers
  done;
  !total

(* Run [scenario], inspecting every router at [at] seconds into the flap
   phase and at the end. Returns the result, the inspection text and the
   reuse timers pending at each inspection point. *)
let observed ~at scenario =
  let buf = Buffer.create 4096 and pending = ref [] and net = ref None in
  let observe n =
    net := Some n;
    let sim = Network.sim n in
    let start = Rfd_engine.Sim.now sim in
    let ch =
      Rfd_engine.Sim.channel sim (fun _ _ ->
          pending := reuse_timers n :: !pending;
          inspect buf n)
    in
    List.iteri (fun i dt -> Rfd_engine.Sim.post sim ch ~time:(start +. dt) i) at
  in
  let result = Runner.run ~observe scenario in
  Option.iter (inspect buf) !net;
  (result, Buffer.contents buf, List.rev !pending)

let same_run ~label ~reference ~at make =
  let wide, wide_text, wide_pending = observed ~at (make ~hint:reference) in
  let narrow, narrow_text, narrow_pending = observed ~at (make ~hint:1) in
  let normalized r = Runner.result_digest { r with Runner.scenario = wide.Runner.scenario } in
  Alcotest.(check bool) (label ^ ": hints differ") true
    (narrow.Runner.scenario <> wide.Runner.scenario);
  Alcotest.(check string) (label ^ ": digest") (normalized wide) (normalized narrow);
  Alcotest.(check string) (label ^ ": inspection answers") wide_text narrow_text;
  Alcotest.(check (list int)) (label ^ ": pending reuse timers") wide_pending narrow_pending;
  narrow_pending

let modes = [ ("exact", Config.Exact); ("tick", Config.Tick 15.) ]

(* 40 background prefixes and 8 flappers above them: ids up to 48, five
   doublings past a hint of 1. RCN mode adds each session's root-cause
   history to the state that must survive growth. *)
let test_growth_past_hint () =
  List.iter
    (fun (label, mode, reuse) ->
      let make ~hint =
        Scenario.make ~name:"growth" ~config:(config ?mode ~hint ~reuse ()) ~pulses:3
          ~background_prefixes:40
          ~workload:
            (Scenario.Flappers { count = 8; flaps = 2; mean_gap = 30.; alpha = 1.5; seed = 7 })
          mesh
      in
      ignore (same_run ~label ~reference:64 ~at:[ 100.; 400.; 2000. ] make))
    (("rcn", Some Config.Rcn, Config.Exact)
    :: List.map (fun (label, reuse) -> (label, None, reuse)) modes)

(* The origin prefix is suppressed by the pulse train; then a replay
   announces prefixes far above every column's capacity, so each session
   grows while reuse timers for its prefix-0 slot are pending. *)
let test_growth_with_pending_reuse () =
  let trace =
    List.map
      (fun (time, prefix, kind, origin) -> { Trace.time; prefix; kind; origin = Some origin })
      [
        (400., 40, Trace.Announce, 4);
        (420., 100, Trace.Announce, 8);
        (500., 40, Trace.Withdraw, 4);
        (560., 129, Trace.Announce, 2);
        (600., 40, Trace.Announce, 4);
      ]
  in
  List.iter
    (fun (label, reuse) ->
      let make ~hint =
        Scenario.make ~name:"growth" ~config:(config ~hint ~reuse ()) ~pulses:3
          ~workload:(Scenario.Replay trace) mesh
      in
      let pending = same_run ~label ~reference:256 ~at:[ 399.; 3000. ] make in
      match pending with
      | before_growth :: _ ->
          Alcotest.(check bool)
            (label ^ ": reuse timers pending while the columns grow")
            true (before_growth > 0)
      | [] -> Alcotest.fail "no inspection ran")
    modes

let suite =
  [
    Alcotest.test_case "growth past the hint is invisible" `Quick test_growth_past_hint;
    Alcotest.test_case "growth with reuse timers pending" `Quick test_growth_with_pending_reuse;
  ]
