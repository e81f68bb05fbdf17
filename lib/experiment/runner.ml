module Rng = Rfd_engine.Rng
module Graph = Rfd_topology.Graph
module Relations = Rfd_topology.Relations
open Rfd_bgp

type budget = { max_events : int option; max_sim_time : float option }

let no_budget = { max_events = None; max_sim_time = None }

let budget ?max_events ?max_sim_time () =
  (match max_events with
  | Some m when m <= 0 -> invalid_arg "Runner.budget: max_events must be positive"
  | Some _ | None -> ());
  (match max_sim_time with
  | Some s when Float.is_nan s || s <= 0. ->
      invalid_arg "Runner.budget: max_sim_time must be positive"
  | Some _ | None -> ());
  { max_events; max_sim_time }

type status = Finished of Oracle.level | Budget_exceeded of Oracle.level

let status_level = function Finished l | Budget_exceeded l -> l
let status_is_budget_exceeded = function Budget_exceeded _ -> true | Finished _ -> false

let status_to_string = function
  | Finished l -> Oracle.level_to_string l
  | Budget_exceeded l -> Printf.sprintf "budget-exceeded(%s)" (Oracle.level_to_string l)

let pp_status ppf s = Format.pp_print_string ppf (status_to_string s)

type result = {
  scenario : Scenario.t;
  origin : int;
  isp : int;
  num_nodes : int;
  tup : float;
  initial_updates : int;
  flap_start : float;
  final_announcement : float;
  convergence_time : float;
  time_to_stable : float;
  time_to_quiet : float;
  final_status : status;
  message_count : int;
  collector : Collector.t;
  spans : Phases.span list;
  sim_events : int;
  peak_heap : int;
  reuse_timer_events : int;
  peak_reuse_timers : int;
  wall_seconds : float;
  cpu_seconds : float;
}

let origin_prefix = Prefix.v 0

let pick_isp scenario rng graph =
  match scenario.Scenario.isp with
  | `Node node ->
      if node >= Graph.num_nodes graph then
        invalid_arg (Printf.sprintf "Runner: isp node %d outside topology" node);
      node
  | `Random -> Rng.int rng (Graph.num_nodes graph)

(* The origin stub is appended as the highest node id, linked to the isp.
   For no-valley policy it is labelled a customer of the isp (a stub AS). *)
let attach_origin graph isp =
  let origin = Graph.num_nodes graph in
  (Graph.add_edges ~nodes:1 graph [ (isp, origin) ], origin)

let relations_for scenario graph ~origin ~isp =
  match scenario.Scenario.policy with
  | Scenario.Announce_all -> None
  | Scenario.No_valley ->
      let base = Relations.infer_by_degree graph in
      (* Re-state every inferred label, then force the stub edge. *)
      let labels =
        Graph.fold_edges graph ~init:[] ~f:(fun acc u v ->
            let lbl =
              if (u, v) = (min isp origin, max isp origin) then
                Relations.Customer_provider { customer = origin; provider = isp }
              else Relations.label base u v
            in
            ((u, v), lbl) :: acc)
      in
      Some (Relations.make graph labels)

let trace_node ~origin = function Some n -> n | None -> origin

let resolve_probe scenario graph ~origin =
  match scenario.Scenario.probe with
  | Scenario.No_probe -> []
  | Scenario.Pairs pairs -> pairs
  | Scenario.At_distance d ->
      let dist = Graph.bfs_distances graph origin in
      let rec find node =
        if node >= Array.length dist then []
        else if dist.(node) = d then
          Array.to_list (Graph.neighbors graph node) |> List.map (fun peer -> (node, peer))
        else find (node + 1)
      in
      find 0

(* Host timings are the only nondeterministic fields of a result, so they
   are zeroed before hashing: equal digests mean equal simulation outcomes,
   and the digest of a retried run must equal that of a first-try run.
   [peak_heap] is zeroed too: a partitioned run reports the sum of its
   per-partition heap high-water marks, which legitimately depends on the
   partition count even when the simulation outcome is bit-identical.
   Marshalling without sharing makes the digest a function of values only:
   which boxed float a collector field points at depends on the order in
   which same-instant events reached it, not on the outcome.

   The bytes hashed are the head (the zeroed result marshalled with its
   collector detached, so column lengths but no cells) and then every
   column's cells as 8-byte words. They pass through a buffer each domain
   allocates once, one load at a time: bytes [0, 16) of a load hold the
   MD5 of the load before (zeros in the first), and a load is hashed when
   the next word would not fit. 64 KiB holds a Figure 8 mesh result in one
   load; a 1 MiB buffer cost the daemon more peak memory than it saved. A
   head that does not fit (a large custom topology or workload trace in
   the scenario) is marshalled to a string and fed through the same way. *)
let digest_buffer_bytes = 1 lsl 16

let digest_buffer = Domain.DLS.new_key (fun () -> Bytes.create digest_buffer_bytes)

let result_digest r =
  let collector, columns = Collector.detach r.collector in
  let head = { r with wall_seconds = 0.; cpu_seconds = 0.; peak_heap = 0; collector } in
  let buffer = Domain.DLS.get digest_buffer in
  let chained = 16 in
  Bytes.fill buffer 0 chained '\000';
  let pos = ref chained in
  let next_load () =
    Bytes.blit_string (Digest.subbytes buffer 0 !pos) 0 buffer 0 chained;
    pos := chained
  in
  let flags = [ Marshal.No_sharing ] in
  (match Marshal.to_buffer buffer chained (digest_buffer_bytes - chained) head flags with
  | length -> pos := chained + length
  | exception Failure _ ->
      let bytes = Marshal.to_string head flags in
      let sent = ref 0 in
      while !sent < String.length bytes do
        if !pos = digest_buffer_bytes then next_load ();
        let n = min (String.length bytes - !sent) (digest_buffer_bytes - !pos) in
        Bytes.blit_string bytes !sent buffer !pos n;
        sent := !sent + n;
        pos := !pos + n
      done);
  List.iter
    (fun cells ->
      let first = ref 0 in
      while !first < Rfd_engine.Column.length cells do
        if !pos + 8 > digest_buffer_bytes then next_load ();
        let n = Rfd_engine.Column.write_words cells ~first:!first buffer ~pos:!pos in
        first := !first + n;
        pos := !pos + (8 * n)
      done)
    columns;
  Digest.to_hex (Digest.subbytes buffer 0 !pos)

type par_stats = {
  partitions : int;
  cut_edges : int;
  epochs : int;
  per_partition_events : int array;
  events_by_kind : Network.event_counts;
  paths_interned_total : int;
}

(* The one run body, for every partition count. Observation happens on the
   ensemble's bus — the sole network's own hooks at one partition, the
   canonical replay bus otherwise — so the collected series are identical
   for any partition count. Budgets are checked at epoch barriers, whose
   sequence is partition-invariant. *)
let run_partitioned ?(budget = no_budget) ?observe ?on_bus ~partitions scenario =
  (match Scenario.validate scenario with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.run: " ^ msg));
  if partitions < 1 then invalid_arg "Runner.run_partitioned: partitions must be >= 1";
  let wall_start = Rfd_engine.Clock.wall () in
  let cpu_start = Rfd_engine.Clock.cpu () in
  let base_graph, rng = Scenario.build_graph scenario in
  let isp = pick_isp scenario (Rng.split rng) base_graph in
  let graph, origin = attach_origin base_graph isp in
  let relations = relations_for scenario graph ~origin ~isp in
  let policy =
    match relations with
    | None -> Policy.announce_all
    | Some rel -> Policy.no_valley rel
  in
  let par = Par_net.create ~policy ~config:scenario.Scenario.config ~partitions graph in
  Fun.protect ~finally:(fun () -> Par_net.shutdown par) @@ fun () ->
  let bus = Par_net.bus par in
  (* One budget spans the whole run: [max_events] caps the total executed
     event count and [max_sim_time] is an absolute clock horizon, so every
     phase just re-presents the same limits. Once either trips, the
     remaining phases are skipped and the result is partial — timers may
     still be armed, RIBs mid-convergence. *)
  let exceeded = ref false in
  let drive () =
    if not !exceeded then
      match
        Par_net.drive ?until:budget.max_sim_time ?max_events:budget.max_events par
      with
      | `Drained -> ()
      | `Horizon | `Budget -> exceeded := true
  in
  (* Phase 1: background prefixes, then the origin announcement (Tup).
     Only its delivery count and last delivery time are reported. *)
  let initial_updates = ref 0 and last_initial_delivery = ref neg_infinity in
  bus.Hooks.on_deliver <-
    (fun ~time ~src:_ ~dst:_ _ ->
      incr initial_updates;
      last_initial_delivery := time);
  let background_rng = Rng.split rng in
  for i = 1 to scenario.Scenario.background_prefixes do
    Par_net.originate par ~node:(Rng.int background_rng (Graph.num_nodes graph)) (Prefix.v i)
  done;
  let workload = Scenario.workload_trace scenario in
  (* Workload prefixes whose trace opens with a withdrawal were reachable
     when recording started: originate them now so they converge alongside
     the background prefixes, before anything is measured. *)
  (match workload with
  | None -> ()
  | Some trace ->
      List.iter
        (fun (o, prefix) ->
          Par_net.originate par ~node:(trace_node ~origin o) (Prefix.v prefix))
        (Trace.pre_originations trace));
  drive ();
  (* Jump every partition's clock to the global last-event time before the
     direct origination below, so the origin's send times are sampled from
     the same "now" no matter which partition owns it. *)
  let origin_announced_at = Par_net.now par in
  Par_net.advance_all par ~time:origin_announced_at;
  Par_net.originate par ~node:origin origin_prefix;
  drive ();
  let tup = Float.max 0. (!last_initial_delivery -. origin_announced_at) in
  (* Phase 2: the flap train. *)
  let probe_pairs = resolve_probe scenario graph ~origin in
  let collector = Collector.create ~probe_pairs () in
  Collector.attach collector bus;
  (match on_bus with Some f -> f bus | None -> ());
  (match observe with Some f -> Par_net.iter_nets par f | None -> ());
  let phase2_now = Par_net.now par in
  Par_net.advance_all par ~time:phase2_now;
  let flap_start = phase2_now +. scenario.Scenario.settle_gap in
  let final_announcement =
    let events = Pulse.events (Scenario.pulse_pattern scenario) in
    List.iter
      (fun (e : Pulse.event) ->
        let at = flap_start +. e.Pulse.at in
        match (scenario.Scenario.mechanism, e.Pulse.kind) with
        | Scenario.Origin_updates, `Withdraw ->
            Par_net.schedule_withdraw par ~at ~node:origin origin_prefix
        | Scenario.Origin_updates, `Announce ->
            Par_net.schedule_originate par ~at ~node:origin origin_prefix
        | Scenario.Link_state, `Withdraw -> Par_net.schedule_fail_link par ~at isp origin
        | Scenario.Link_state, `Announce -> Par_net.schedule_restore_link par ~at isp origin)
      events;
    match List.rev events with
    | [] -> flap_start
    | last :: _ -> flap_start +. last.Pulse.at
  in
  (* The workload trace shares the flap phase's time origin; its events are
     scheduled after the pulse train's, so they take later op-table rows
     and a pulse and a trace event at one instant pop pulse first. *)
  let final_announcement =
    match workload with
    | None -> final_announcement
    | Some trace ->
        List.iter
          (fun (e : Trace.event) ->
            let at = flap_start +. e.Trace.time in
            let node = trace_node ~origin e.Trace.origin in
            let prefix = Prefix.v e.Trace.prefix in
            match e.Trace.kind with
            | Trace.Announce -> Par_net.schedule_originate par ~at ~node prefix
            | Trace.Withdraw -> Par_net.schedule_withdraw par ~at ~node prefix)
          trace;
        Float.max final_announcement (flap_start +. Trace.last_time trace)
  in
  (* Fault injection shares the flap phase's time origin, so plan event
     times compose with the pulse pattern's. *)
  (match scenario.Scenario.faults with
  | Some plan -> Injector.install ~start:flap_start plan par
  | None -> ());
  drive ();
  (* Flush observations recorded after the last barrier (e.g. hooks fired
     by direct originations when a budget tripped mid-phase). *)
  Par_net.flush par;
  Collector.trim collector;
  let convergence_time =
    match Collector.last_update_time collector with
    | Some t -> Float.max 0. (t -. final_announcement)
    | None -> 0.
  in
  (* Oracle summary: a complete run drains the event queue, so the last
     observed activity of each kind marks the transition into the
     corresponding oracle level. Stable = routing and MRAI machinery inert;
     quiet = additionally every reuse timer fired. *)
  let final_status =
    let level = Par_net.status par origin_prefix in
    if !exceeded then Budget_exceeded level else Finished level
  in
  let fold_last acc = function Some t -> Float.max acc t | None -> acc in
  let stable_abs =
    List.fold_left fold_last final_announcement
      [ Collector.last_update_time collector; Collector.last_mrai_time collector ]
  in
  let quiet_abs = fold_last stable_abs (Collector.last_timer_time collector) in
  let time_to_stable = stable_abs -. final_announcement in
  let time_to_quiet = quiet_abs -. final_announcement in
  let spans = Collector.spans collector ~flap_start in
  let result =
    {
      scenario;
      origin;
      isp;
      num_nodes = Graph.num_nodes graph;
      tup;
      initial_updates = !initial_updates;
      flap_start;
      final_announcement;
      convergence_time;
      time_to_stable;
      time_to_quiet;
      final_status;
      message_count = Collector.update_count collector;
      collector;
      spans;
      sim_events = Par_net.sim_events par;
      peak_heap = Par_net.peak_heap par;
      reuse_timer_events = Par_net.reuse_timer_events par;
      peak_reuse_timers = Par_net.peak_reuse_timers par;
      wall_seconds = Rfd_engine.Clock.wall () -. wall_start;
      cpu_seconds = Rfd_engine.Clock.cpu () -. cpu_start;
    }
  in
  let stats =
    {
      partitions = Par_net.partitions par;
      cut_edges = Par_net.cut_edges par;
      epochs = Par_net.epochs par;
      per_partition_events = Par_net.per_partition_events par;
      events_by_kind = Par_net.event_counts par;
      paths_interned_total = Par_net.paths_interned par;
    }
  in
  (result, stats)

let run ?budget ?observe scenario = fst (run_partitioned ?budget ?observe ~partitions:1 scenario)

let pp_result ppf r =
  Format.fprintf ppf
    "%a@ origin=%d isp=%d nodes=%d tup=%.1fs@ convergence=%.0fs time-to-stable=%.0fs \
     time-to-quiet=%.0fs oracle=%a@ messages=%d peak-damped=%d suppressions=%d reuses=%d \
     (noisy %d)@ events=%d wall=%.2fs cpu=%.2fs"
    Scenario.pp r.scenario r.origin r.isp r.num_nodes r.tup r.convergence_time
    r.time_to_stable r.time_to_quiet pp_status r.final_status r.message_count
    (Collector.peak_damped r.collector)
    (Collector.suppress_events r.collector)
    (Collector.reuse_events r.collector)
    (Collector.noisy_reuse_events r.collector)
    r.sim_events r.wall_seconds r.cpu_seconds
