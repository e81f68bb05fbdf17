(* Network-level damping tests: suppression, reuse, muffling, secondary
   charging, RCN and selective filtering, partial deployment. *)

open Rfd_bgp
module Par_net = Rfd_experiment.Par_net
module Builders = Rfd_topology.Builders
module Graph = Rfd_topology.Graph
module Params = Rfd_damping.Params

let p0 = Prefix.v 0

let base_config =
  {
    Config.default with
    Config.mrai = 0.;
    link_delay = 0.01;
    link_jitter = 0.;
    mrai_jitter = (1.0, 1.0);
  }

let damping_config ?(mode = Config.Plain) ?(deployment = Config.Everywhere) () =
  Config.with_damping ~mode ~deployment Params.cisco base_config

let make ?(config = base_config) graph = Fixture.create ~config graph

(* Flap the origin n times with the paper's 60 s interval starting at the
   current time + 1 s; returns the time of the final announcement. *)
let flap net ~origin ~pulses =
  let t0 = Par_net.now net +. 1. in
  for i = 0 to pulses - 1 do
    let base = t0 +. (120. *. float_of_int i) in
    Par_net.schedule_withdraw net ~at:base ~node:origin p0;
    Par_net.schedule_originate net ~at:(base +. 60.) ~node:origin p0
  done;
  t0 +. (120. *. float_of_int (pulses - 1)) +. 60.

let test_suppression_onset_on_line () =
  (* origin 0 — isp 1 — 2: no alternate paths, so no path exploration; the
     isp's penalty is charged only by the origin's own flaps: suppression
     exactly at the 3rd pulse (paper Section 3 / Figure 13 discussion). *)
  let net = make ~config:(damping_config ()) (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let suppressed_at = ref None in
  (Par_net.bus net).Hooks.on_suppress <-
    (fun ~time ~router ~peer ~prefix:_ ->
      if !suppressed_at = None && router = 1 && peer = 0 then suppressed_at := Some time);
  let t0 = Par_net.now net +. 1. in
  (* pulse 1 and 2: no suppression expected yet *)
  let _ = flap net ~origin:0 ~pulses:2 in
  Fixture.run ~until:(t0 +. 239.) net;
  Alcotest.(check bool) "no suppression after 2 pulses" true (!suppressed_at = None);
  (* third withdrawal crosses 2000 *)
  Par_net.schedule_withdraw net ~at:(t0 +. 240.) ~node:0 p0;
  Par_net.schedule_originate net ~at:(t0 +. 300.) ~node:0 p0;
  Fixture.run net;
  Alcotest.(check bool) "suppressed at 3rd pulse" true (!suppressed_at <> None)

let test_suppression_blocks_propagation () =
  let net = make ~config:(damping_config ()) (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let _ = flap net ~origin:0 ~pulses:3 in
  (* run just past the final announcement: isp has suppressed, so node 2
     must consider the destination unreachable *)
  Fixture.run ~until:(Par_net.now net +. 1. +. 360.) net;
  Alcotest.(check bool) "isp suppressed origin entry" true
    (Router.is_suppressed (Par_net.router net 1) ~peer:0 p0);
  Alcotest.(check bool) "remote unreachable while suppressed" true
    (Router.best (Par_net.router net 2) p0 = None);
  (* eventually the reuse timer fires and the route comes back *)
  Fixture.run net;
  Alcotest.(check bool) "released eventually" false
    (Router.is_suppressed (Par_net.router net 1) ~peer:0 p0);
  Alcotest.(check int) "reachable again" 3 (Par_net.reachable_count net p0)

let test_reuse_timing_matches_formula () =
  let net = make ~config:(damping_config ()) (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let reuse_time = ref None in
  (Par_net.bus net).Hooks.on_reuse <-
    (fun ~time ~router ~peer ~prefix:_ ~noisy:_ ->
      if router = 1 && peer = 0 then reuse_time := Some time);
  let final_ann = flap net ~origin:0 ~pulses:3 in
  Fixture.run net;
  match !reuse_time with
  | None -> Alcotest.fail "expected a reuse"
  | Some t ->
      (* predicted: penalty p3 at 3rd W, decayed to the announcement, then
         r = (1/lambda) ln (p/750) — compare within a small tolerance
         (link delay, timer epsilon) *)
      let s = Rfd_experiment.Intended.final_state Params.cisco ~pulses:3 ~interval:60. in
      let r = Params.reuse_delay Params.cisco ~penalty:s.Rfd_experiment.Intended.penalty in
      let predicted = final_ann +. r in
      Alcotest.(check bool)
        (Printf.sprintf "reuse at %.1f ~ predicted %.1f" t predicted)
        true
        (Float.abs (t -. predicted) < 2.0)

let test_muffling_silent_reuse () =
  (* Diamond: origin 0 - isp 1 - {2, 3} - 4. Suppress everywhere via many
     pulses; while the isp keeps the route suppressed, remote reuse timers
     fire silently (destination withdrawn), i.e. noisy = false. *)
  let g = Graph.of_edges ~num_nodes:5 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let net = make ~config:(damping_config ()) g in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let reuses = ref [] in
  (Par_net.bus net).Hooks.on_reuse <-
    (fun ~time:_ ~router ~peer:_ ~prefix:_ ~noisy -> reuses := (router, noisy) :: !reuses);
  let _ = flap net ~origin:0 ~pulses:8 in
  Fixture.run net;
  (* the last reuse belongs to the isp (router 1) and is the only noisy
     one required to restore reachability *)
  Alcotest.(check bool) "some reuses happened" true (!reuses <> []);
  let isp_noisy = List.exists (fun (router, noisy) -> router = 1 && noisy) !reuses in
  Alcotest.(check bool) "isp reuse was noisy" true isp_noisy;
  Alcotest.(check int) "all reachable at the end" 5 (Par_net.reachable_count net p0)

let test_secondary_charging_postpones_reuse () =
  (* Deterministic secondary charging on a line with Juniper parameters:
     origin 0 — isp 1 — 2 — 3. Two pulses suppress the isp's entry (Juniper
     charges PW + PA = 2000 per pulse against a 3000 cut-off). When the
     isp's reuse timer fires, its re-announcement charges router 2's
     penalty — an update caused by route reuse, not by a flap: exactly the
     paper's secondary-charging interaction. *)
  let config =
    Config.with_damping ~mode:Config.Plain ~deployment:Config.Everywhere Params.juniper
      base_config
  in
  let net = make ~config (Builders.line 4) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let isp_reuse = ref None in
  let charge_after_reuse = ref false in
  let h = Par_net.bus net in
  h.Hooks.on_reuse <-
    (fun ~time ~router ~peer ~prefix:_ ~noisy ->
      if router = 1 && peer = 0 then begin
        isp_reuse := Some time;
        Alcotest.(check bool) "isp reuse is noisy" true noisy
      end);
  h.Hooks.on_penalty <-
    (fun ~time:_ ~router ~peer ~prefix:_ ~penalty:_ ->
      if !isp_reuse <> None && router = 2 && peer = 1 then charge_after_reuse := true);
  let _ = flap net ~origin:0 ~pulses:2 in
  Fixture.run net;
  Alcotest.(check bool) "isp suppressed and reused" true (!isp_reuse <> None);
  Alcotest.(check bool) "reuse announcement re-charged the neighbour" true !charge_after_reuse

let test_rcn_prevents_false_suppression () =
  (* Same diamond as muffling test. A single pulse with plain damping can
     suppress remote entries via path exploration; with RCN each root cause
     charges once, so no remote suppression after one pulse. *)
  let g = Graph.of_edges ~num_nodes:5 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let run mode =
    let config = { (damping_config ~mode ()) with Config.mrai = 1. } in
    let net = make ~config g in
    Par_net.originate net ~node:0 p0;
    Fixture.run net;
    let suppressions = ref 0 in
    (Par_net.bus net).Hooks.on_suppress <-
      (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ -> incr suppressions);
    let final_ann = flap net ~origin:0 ~pulses:1 in
    Fixture.run net;
    let last =
      (* convergence: last update time *)
      final_ann
    in
    ignore last;
    !suppressions
  in
  let rcn = run Config.Rcn in
  Alcotest.(check int) "no suppression with RCN after 1 pulse" 0 rcn

let test_rcn_still_suppresses_real_flaps () =
  (* RCN must not break legitimate damping: repeated real flaps still
     suppress at the isp (each flap is a fresh root cause). *)
  let net = make ~config:(damping_config ~mode:Config.Rcn ()) (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let suppressed = ref false in
  (Par_net.bus net).Hooks.on_suppress <-
    (fun ~time:_ ~router ~peer ~prefix:_ -> if router = 1 && peer = 0 then suppressed := true);
  let _ = flap net ~origin:0 ~pulses:4 in
  Fixture.run net;
  Alcotest.(check bool) "isp still suppresses with RCN" true !suppressed

let test_rcn_convergence_not_worse () =
  (* On the diamond, RCN convergence after one pulse must be no slower than
     plain damping (the paper's Figure 13 point for small n). *)
  let g = Graph.of_edges ~num_nodes:5 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let convergence mode =
    let config = { (damping_config ~mode ()) with Config.mrai = 1. } in
    let net = make ~config g in
    Par_net.originate net ~node:0 p0;
    Fixture.run net;
    let last = ref 0. in
    (Par_net.bus net).Hooks.on_deliver <- (fun ~time ~src:_ ~dst:_ _ -> last := time);
    let final_ann = flap net ~origin:0 ~pulses:1 in
    Fixture.run net;
    Float.max 0. (!last -. final_ann)
  in
  let plain = convergence Config.Plain in
  let rcn = convergence Config.Rcn in
  Alcotest.(check bool)
    (Printf.sprintf "rcn %.1f <= plain %.1f" rcn plain)
    true (rcn <= plain +. 1e-6)

let test_partial_deployment () =
  let config = damping_config ~deployment:(Config.Only [ 1 ]) () in
  let net = make ~config (Builders.line 4) in
  Alcotest.(check bool) "damping at 1" true (Network.damping_at (Fixture.shard net) 1);
  Alcotest.(check bool) "no damping at 2" false (Network.damping_at (Fixture.shard net) 2);
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  (* flaps suppress at router 1 only *)
  let _ = flap net ~origin:0 ~pulses:4 in
  Fixture.run ~until:(Par_net.now net +. 500.) net;
  Alcotest.(check bool) "router 2 never suppresses" true
    (Router.suppressed_count (Par_net.router net 2) = 0);
  Fixture.run net

let test_nowhere_deployment_is_no_damping () =
  let config = damping_config ~deployment:Config.Nowhere () in
  let net = make ~config (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let suppressions = ref 0 in
  (Par_net.bus net).Hooks.on_suppress <-
    (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ -> incr suppressions);
  let _ = flap net ~origin:0 ~pulses:6 in
  Fixture.run net;
  Alcotest.(check int) "never suppresses" 0 !suppressions;
  Alcotest.(check int) "reachable" 3 (Par_net.reachable_count net p0)

let test_selective_skips_worse_exploration () =
  (* Selective damping ignores monotonically-worse announcements: on the
     diamond the remote suppressions should not exceed plain damping's. *)
  let g = Graph.of_edges ~num_nodes:5 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let suppress_count mode =
    let config = { (damping_config ~mode ()) with Config.mrai = 1. } in
    let net = make ~config g in
    Par_net.originate net ~node:0 p0;
    Fixture.run net;
    let n = ref 0 in
    (Par_net.bus net).Hooks.on_suppress <-
      (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ -> incr n);
    let _ = flap net ~origin:0 ~pulses:1 in
    Fixture.run net;
    !n
  in
  let plain = suppress_count Config.Plain in
  let selective = suppress_count Config.Selective in
  Alcotest.(check bool)
    (Printf.sprintf "selective %d <= plain %d" selective plain)
    true (selective <= plain)

let test_diverse_parameters_cause_secondary_charging () =
  (* Paper Section 6: even without path exploration, routers with
     *different* damping parameters interact — the one that reuses earlier
     re-charges the later one. Line: origin 0 - isp 1 - X (2) - Y (3).
     Damping only at X and Y; Y's parameters make it suppress longer and
     penalise re-announcements, so X's reuse announcement postpones Y. *)
  let aggressive =
    {
      Params.cisco with
      Params.name = "aggressive";
      reannouncement_penalty = 1000.;
      half_life = 1800.;
    }
  in
  let config =
    {
      (Config.with_damping ~deployment:(Config.Only [ 2; 3 ]) Params.cisco base_config) with
      Config.damping_overrides = [ (3, aggressive) ];
    }
  in
  let net = make ~config (Builders.line 4) in
  Alcotest.(check bool) "override visible" true
    (Router.damping_params (Par_net.router net 3) = Some aggressive);
  Alcotest.(check bool) "default elsewhere" true
    (Router.damping_params (Par_net.router net 2) = Some Params.cisco);
  Alcotest.(check bool) "isp undeployed" true
    (Router.damping_params (Par_net.router net 1) = None);
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let x_reuse = ref None in
  let y_penalty_after_x_reuse = ref false in
  let y_reuse = ref None in
  let h = Par_net.bus net in
  h.Hooks.on_reuse <-
    (fun ~time ~router ~peer:_ ~prefix:_ ~noisy:_ ->
      if router = 2 && !x_reuse = None then x_reuse := Some time;
      if router = 3 then y_reuse := Some time);
  h.Hooks.on_penalty <-
    (fun ~time:_ ~router ~peer ~prefix:_ ~penalty:_ ->
      if router = 3 && peer = 2 && !x_reuse <> None then y_penalty_after_x_reuse := true);
  (* enough pulses to suppress both X and Y *)
  let _ = flap net ~origin:0 ~pulses:4 in
  Fixture.run net;
  match (!x_reuse, !y_reuse) with
  | Some x, Some y ->
      Alcotest.(check bool) "X reuses before Y" true (x < y);
      Alcotest.(check bool) "X's reuse re-charged Y (secondary charging)" true
        !y_penalty_after_x_reuse
  | _ -> Alcotest.fail "both X and Y should suppress and reuse"

let test_damping_survives_multi_prefix () =
  (* Damping state is per (peer, prefix): flapping p0 must not suppress an
     unrelated stable prefix p1 from the same peer. *)
  let p1 = Prefix.v 1 in
  let net = make ~config:(damping_config ()) (Builders.line 3) in
  Par_net.originate net ~node:0 p0;
  Par_net.originate net ~node:0 p1;
  Fixture.run net;
  let _ = flap net ~origin:0 ~pulses:4 in
  Fixture.run ~until:(Par_net.now net +. 500.) net;
  Alcotest.(check bool) "p0 suppressed" true
    (Router.is_suppressed (Par_net.router net 1) ~peer:0 p0);
  Alcotest.(check bool) "p1 untouched" false
    (Router.is_suppressed (Par_net.router net 1) ~peer:0 p1);
  Alcotest.(check bool) "p1 still reachable" true
    (Router.best (Par_net.router net 2) p1 <> None);
  Fixture.run net

let test_reuse_far_in_time () =
  (* Near 1e11 s a float's spacing (1.5e-5 s) is wider than the 1e-6 s
     margin a reuse timer re-arms with, so a re-arm that added only the
     margin landed on the current instant and fired there forever. The
     re-arm must move time forward, and the run must end quiet. *)
  let net = make ~config:(damping_config ()) (Builders.line 2) in
  Par_net.originate net ~node:0 p0;
  Fixture.run net;
  let t0 = 1e11 in
  for i = 0 to 3 do
    let base = t0 +. (120. *. float_of_int i) in
    Par_net.schedule_withdraw net ~at:base ~node:0 p0;
    Par_net.schedule_originate net ~at:(base +. 60.) ~node:0 p0
  done;
  Fixture.run net;
  Alcotest.(check bool) "was suppressed" true (Par_net.reuse_timer_events net > 0);
  Alcotest.(check bool) "released far past the flaps" true (Par_net.now net > t0);
  Alcotest.(check bool) "quiet" true (Par_net.status net p0 = Oracle.Quiet);
  Alcotest.(check int) "reachable again" 2 (Par_net.reachable_count net p0)

let suite =
  [
    Alcotest.test_case "suppression onset at pulse 3" `Quick test_suppression_onset_on_line;
    Alcotest.test_case "suppression blocks propagation" `Quick test_suppression_blocks_propagation;
    Alcotest.test_case "reuse timing matches formula" `Quick test_reuse_timing_matches_formula;
    Alcotest.test_case "muffling: isp reuse is the noisy one" `Quick test_muffling_silent_reuse;
    Alcotest.test_case "secondary charging after reuse" `Quick
      test_secondary_charging_postpones_reuse;
    Alcotest.test_case "RCN prevents false suppression" `Quick test_rcn_prevents_false_suppression;
    Alcotest.test_case "RCN keeps real damping" `Quick test_rcn_still_suppresses_real_flaps;
    Alcotest.test_case "RCN convergence not worse" `Quick test_rcn_convergence_not_worse;
    Alcotest.test_case "partial deployment" `Quick test_partial_deployment;
    Alcotest.test_case "deployment nowhere" `Quick test_nowhere_deployment_is_no_damping;
    Alcotest.test_case "selective damping baseline" `Quick test_selective_skips_worse_exploration;
    Alcotest.test_case "diverse parameters interact (Section 6)" `Quick
      test_diverse_parameters_cause_secondary_charging;
    Alcotest.test_case "damping is per prefix" `Quick test_damping_survives_multi_prefix;
    Alcotest.test_case "reuse timers far in time still advance" `Quick test_reuse_far_in_time;
  ]
