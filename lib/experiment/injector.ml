module Graph = Rfd_topology.Graph
module Fault_plan = Rfd_faults.Fault_plan

let fail msg = invalid_arg ("Injector.install: " ^ msg)

let check_link graph (u, v) =
  let n = Graph.num_nodes graph in
  if u < 0 || u >= n || v < 0 || v >= n || not (Graph.has_edge graph u v) then
    fail
      (Printf.sprintf "(%d, %d) is not a link of the target network (%d nodes, %d edges)" u v
         (Graph.num_nodes graph) (Graph.num_edges graph))

let check_node graph node =
  if node < 0 || node >= Graph.num_nodes graph then
    fail
      (Printf.sprintf "router %d outside the target network (%d nodes)" node
         (Graph.num_nodes graph))

let install ?(start = 0.) (plan : Fault_plan.t) par =
  (match Fault_plan.validate plan with Ok () -> () | Error msg -> fail msg);
  if Float.is_nan start || start < 0. then fail "start time must be non-negative";
  let graph = Par_net.graph par in
  (* Range-check everything against the concrete topology up front, so a
     bad plan fails loudly at install time instead of mid-run. *)
  List.iter (fun (e : Fault_plan.link_event) -> check_link graph e.Fault_plan.link)
    plan.Fault_plan.link_events;
  List.iter (fun (e : Fault_plan.router_event) -> check_node graph e.Fault_plan.node)
    plan.Fault_plan.router_events;
  (match plan.Fault_plan.random_flaps with
  | Some r -> List.iter (check_link graph) r.Fault_plan.candidates
  | None -> ());
  List.iter (fun ((u, v), _) -> check_link graph (u, v)) plan.Fault_plan.per_link_degradation;
  (* Degradation: the default applies to every directed link, then the
     per-link overrides. Takes effect immediately (not at [start]). *)
  let degrade ~src ~dst (deg : Fault_plan.degradation) =
    Par_net.set_degradation par ~src ~dst ~loss:deg.Fault_plan.loss
      ~duplication:deg.Fault_plan.duplication
  in
  let default = plan.Fault_plan.degradation in
  if default <> Fault_plan.perfect then
    Array.iter
      (fun (u, v) ->
        degrade ~src:u ~dst:v default;
        degrade ~src:v ~dst:u default)
      (Graph.edges graph);
  List.iter (fun ((src, dst), deg) -> degrade ~src ~dst deg) plan.Fault_plan.per_link_degradation;
  (* Events: expand (random flaps draw candidates from the whole topology
     when the plan names none) and schedule at [start +. at]. *)
  let candidates = Array.to_list (Graph.edges graph) in
  List.iter
    (fun event ->
      let at = start +. Fault_plan.event_time event in
      match event with
      | Fault_plan.Link { link = u, v; action = `Fail; _ } -> Par_net.schedule_fail_link par ~at u v
      | Fault_plan.Link { link = u, v; action = `Recover; _ } ->
          Par_net.schedule_restore_link par ~at u v
      | Fault_plan.Router { node; action = `Crash; _ } -> Par_net.schedule_crash par ~at node
      | Fault_plan.Router { node; action = `Restart; _ } -> Par_net.schedule_restart par ~at node)
    (Fault_plan.expand ~candidates plan)
