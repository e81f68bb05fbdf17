type topology =
  | Mesh of { rows : int; cols : int }
  | Internet of { nodes : int; m : int }
  | Custom of Rfd_topology.Graph.t

type policy_kind = Announce_all | No_valley

type mechanism = Origin_updates | Link_state

type probe = No_probe | At_distance of int | Pairs of (int * int) list

type workload =
  | Pulses_only
  | Replay of Trace.t
  | Flappers of { count : int; flaps : int; mean_gap : float; alpha : float; seed : int }

type t = {
  name : string;
  topology : topology;
  policy : policy_kind;
  config : Rfd_bgp.Config.t;
  isp : [ `Node of int | `Random ];
  pulses : int;
  flap_interval : float;
  pattern : Pulse.pattern option;
  mechanism : mechanism;
  background_prefixes : int;
  probe : probe;
  settle_gap : float;
  faults : Rfd_faults.Fault_plan.t option;
  workload : workload;
}

let topology_nodes = function
  | Mesh { rows; cols } -> rows * cols
  | Internet { nodes; _ } -> nodes
  | Custom g -> Rfd_topology.Graph.num_nodes g

(* A router sizes its dense RIB columns by the largest prefix id it sees,
   so prefix ids are capped at 2^20, a full Internet table's worth: above
   the daemon's largest admissible id (200,000 background prefixes plus
   10,000 flappers), and far below 2^31, the prefix field of a timer key. *)
let max_prefix_id = 1 lsl 20

let prefix_cap_problem ~background_prefixes workload =
  let over what = Some (Printf.sprintf "%s exceeds the prefix id cap %d" what max_prefix_id) in
  if background_prefixes > max_prefix_id then
    over (Printf.sprintf "background prefix %d" background_prefixes)
  else
    match workload with
    | Pulses_only -> None
    | Flappers { count; _ } when count > max_prefix_id - background_prefixes ->
        over
          (Printf.sprintf "the last of %d flapper prefixes above %d background prefixes" count
             background_prefixes)
    | Flappers _ -> None
    | Replay trace ->
        let largest = Trace.max_prefix trace in
        if largest > max_prefix_id then over (Printf.sprintf "replay trace prefix %d" largest)
        else None

(* Workload and prefix-range checks. *)
let workload_problem ~background_prefixes workload topology =
  let problem =
    match workload with
    | Pulses_only -> None
    | Flappers { count; flaps; mean_gap; alpha; seed = _ } ->
        if count < 0 then Some (Printf.sprintf "flapper count must be non-negative (got %d)" count)
        else if flaps < 1 then
          Some (Printf.sprintf "flaps per flapper must be positive (got %d)" flaps)
        else if (not (Float.is_finite mean_gap)) || mean_gap <= 0. then
          Some (Printf.sprintf "flapper mean_gap must be positive and finite (got %g)" mean_gap)
        else if (not (Float.is_finite alpha)) || alpha <= 0. then
          Some (Printf.sprintf "flapper alpha must be positive and finite (got %g)" alpha)
        else None
    | Replay trace -> (
        match Trace.validate trace with
        | Error e -> Some ("replay " ^ e)
        | Ok () ->
            let n = topology_nodes topology in
            let worst = Trace.max_origin trace in
            if worst >= n then
              Some
                (Printf.sprintf "replay trace origin %d is out of range for a %d-node topology"
                   worst n)
            else begin
              let floor = background_prefixes + 1 in
              List.find_opt (fun (e : Trace.event) -> e.Trace.prefix < floor) trace
              |> Option.map (fun (e : Trace.event) ->
                     Printf.sprintf
                       "replay trace prefix %d collides with the background range 1..%d \
                        (use prefixes >= %d)"
                       e.Trace.prefix background_prefixes floor)
            end)
  in
  match problem with
  | Some _ -> problem
  | None -> prefix_cap_problem ~background_prefixes workload

(* The checks [make] runs, in its order, worded with the offending value;
   the first problem, if any. Failing in [make] points at the call site
   that wrote the bad value, and [validate] runs the same checks first, so
   a record built by hand is refused in the same words. *)
let argument_problem ~pulses ~flap_interval ~background_prefixes ~settle_gap ~isp ~workload
    topology =
  let problem fmt = Printf.ksprintf Option.some fmt in
  if pulses < 0 then problem "pulses must be non-negative (got %d)" pulses
  else if background_prefixes < 0 then
    problem "background_prefixes must be non-negative (got %d)" background_prefixes
  else if (not (Float.is_finite flap_interval)) || flap_interval <= 0. then
    problem "flap_interval must be positive and finite (got %g)" flap_interval
  else if (not (Float.is_finite settle_gap)) || settle_gap <= 0. then
    problem "settle_gap must be positive and finite (got %g)" settle_gap
  else
    match topology with
    | Mesh { rows; cols } when rows < 3 || cols < 3 ->
        problem "mesh needs rows, cols >= 3 (got %dx%d)" rows cols
    | Internet { nodes; m } when m < 1 || m >= nodes ->
        problem "internet needs 1 <= m < nodes (got nodes=%d m=%d)" nodes m
    | Custom g when Rfd_topology.Graph.num_nodes g = 0 -> problem "custom graph is empty"
    | Mesh _ | Internet _ | Custom _ -> (
        match workload_problem ~background_prefixes workload topology with
        | Some _ as e -> e
        | None -> (
            let n = topology_nodes topology in
            match isp with
            | `Node node when node < 0 || node >= n ->
                problem "isp node %d is out of range for a %d-node topology (want 0..%d)" node n
                  (n - 1)
            | `Node _ | `Random -> None))

let make ?(name = "scenario") ?(policy = Announce_all) ?(config = Rfd_bgp.Config.default)
    ?(isp = `Node 0) ?(pulses = 1) ?(flap_interval = 60.) ?pattern
    ?(mechanism = Origin_updates) ?(background_prefixes = 0) ?(probe = No_probe)
    ?(settle_gap = 10.) ?faults ?(workload = Pulses_only) topology =
  (match
     argument_problem ~pulses ~flap_interval ~background_prefixes ~settle_gap ~isp ~workload
       topology
   with
  | Some e -> invalid_arg ("Scenario.make: " ^ e)
  | None -> ());
  {
    name;
    topology;
    policy;
    config;
    isp;
    pulses;
    flap_interval;
    pattern;
    mechanism;
    background_prefixes;
    probe;
    settle_gap;
    faults;
    workload;
  }

let with_pulses t pulses = { t with pulses }

let paper_mesh = Mesh { rows = 10; cols = 10 }
let paper_internet = Internet { nodes = 100; m = 2 }
let paper_internet_208 = Internet { nodes = 208; m = 2 }

let pulse_pattern t =
  match t.pattern with
  | Some pattern -> pattern
  | None -> Pulse.Periodic { pulses = t.pulses; interval = t.flap_interval }

(* Trace origins index base-topology nodes (the origin stub is appended
   after them), so a [Flappers] workload expands to exactly the trace
   [Replay (Trace.flappers ...)] would carry. *)
let generate_flappers t ~count ~flaps ~mean_gap ~alpha ~seed =
  Trace.flappers ~seed ~nodes:(topology_nodes t.topology) ~count ~flaps ~mean_gap ~alpha
    ~first_prefix:(t.background_prefixes + 1)

let workload_trace t =
  match t.workload with
  | Pulses_only -> None
  | Replay trace -> Some trace
  | Flappers { count; flaps; mean_gap; alpha; seed } ->
      Some (generate_flappers t ~count ~flaps ~mean_gap ~alpha ~seed)

let build_graph t =
  let rng = Rfd_engine.Rng.create t.config.Rfd_bgp.Config.seed in
  let graph_rng = Rfd_engine.Rng.split rng in
  let graph =
    match t.topology with
    | Mesh { rows; cols } -> Rfd_topology.Builders.mesh ~rows ~cols
    | Internet { nodes; m } -> Rfd_topology.Random_graphs.barabasi_albert graph_rng ~n:nodes ~m
    | Custom graph -> graph
  in
  (graph, rng)

(* [Par_sim] advances in epochs of one link delay, so an event at a time
   [time] with [time +. link_delay = time] (past 2^49 s at 0.05 s) could
   never be passed. Each flap-phase source is checked at the settle gap
   plus its last offset: the flap phase starts that long after initial
   convergence, whose length is known only once it has run. *)
let advances ~delay time = time +. delay > time

let stuck t source offset =
  let delay = t.config.Rfd_bgp.Config.link_delay and time = t.settle_gap +. offset in
  if advances ~delay time then None
  else
    Some
      (Printf.sprintf "%s at %g s cannot advance by the %g s link delay (the lockstep lookahead)"
         source time delay)

(* A flapper trace is generated only when its cheap bound cannot rule it
   out. A bound [b] rules out every time up to [b]: doubling a time
   doubles the spacing of floats near it, so [2b] advancing means every
   smaller time does. *)
let horizon_problem t =
  match stuck t "last pulse" (Pulse.final_announcement (pulse_pattern t)) with
  | Some _ as problem -> problem
  | None -> (
      match
        match t.workload with
        | Pulses_only -> None
        | Replay trace -> stuck t "last replayed event" (Trace.last_time trace)
        | Flappers { count; flaps; mean_gap; alpha; seed } ->
            let bound = t.settle_gap +. Trace.flappers_horizon ~flaps ~mean_gap ~alpha in
            if advances ~delay:t.config.Rfd_bgp.Config.link_delay (2. *. bound) then None
            else
              stuck t "last flapper event"
                (Trace.last_time (generate_flappers t ~count ~flaps ~mean_gap ~alpha ~seed))
      with
      | Some _ as problem -> problem
      | None -> (
          match t.faults with
          | None -> None
          | Some plan -> stuck t "last fault event" (Rfd_faults.Fault_plan.last_time plan)))

let pattern_problem = function
  | None -> None
  | Some pattern -> (
      match Pulse.events pattern with
      | (_ : Pulse.event list) -> None
      | exception Invalid_argument msg -> Some msg)

let validate t =
  match
    match
      argument_problem ~pulses:t.pulses ~flap_interval:t.flap_interval
        ~background_prefixes:t.background_prefixes ~settle_gap:t.settle_gap ~isp:t.isp
        ~workload:t.workload t.topology
    with
    | Some _ as problem -> problem
    | None -> (
        match Rfd_bgp.Config.validate t.config with
        | Error e -> Some ("config: " ^ e)
        | Ok () -> (
            match pattern_problem t.pattern with
            | Some _ as problem -> problem
            | None -> (
                match Option.map Rfd_faults.Fault_plan.validate t.faults with
                | Some (Error e) -> Some ("faults: " ^ e)
                | Some (Ok ()) | None -> horizon_problem t)))
  with
  | Some e -> Error e
  | None -> Ok ()

let pp_topology ppf = function
  | Mesh { rows; cols } -> Format.fprintf ppf "mesh %dx%d" rows cols
  | Internet { nodes; m } -> Format.fprintf ppf "internet n=%d m=%d" nodes m
  | Custom g -> Format.fprintf ppf "custom %a" Rfd_topology.Graph.pp g

(* Unlike [pp_topology], never expands a custom graph's structure — this
   goes into one-line failure reports, where a 208-node edge dump would
   drown the coordinates it is meant to contextualise. *)
let topology_summary = function
  | Mesh { rows; cols } -> Printf.sprintf "mesh:%dx%d" rows cols
  | Internet { nodes; m } -> Printf.sprintf "internet:%d,%d" nodes m
  | Custom g ->
      Printf.sprintf "custom:%dn,%de" (Rfd_topology.Graph.num_nodes g)
        (Rfd_topology.Graph.num_edges g)

let pp_workload ppf = function
  | Pulses_only -> ()
  | Replay trace -> Format.fprintf ppf ", replay of %a" Trace.pp trace
  | Flappers { count; flaps; mean_gap; alpha; seed } ->
      Format.fprintf ppf ", %d flappers x%d ~%gs pareto(%g) seed=%d" count flaps mean_gap
        alpha seed

let pp ppf t =
  Format.fprintf ppf "%s: %a, %s policy, %a%s%a, damping=%s%s" t.name pp_topology t.topology
    (match t.policy with Announce_all -> "announce-all" | No_valley -> "no-valley")
    (fun ppf () ->
      match t.pattern with
      | Some pattern -> Pulse.pp ppf pattern
      | None -> Format.fprintf ppf "%d pulse(s) x %gs" t.pulses t.flap_interval)
    ()
    (match t.mechanism with Origin_updates -> "" | Link_state -> " via link flaps")
    pp_workload t.workload
    (match t.config.Rfd_bgp.Config.damping with
    | None -> "off"
    | Some p ->
        p.Rfd_damping.Params.name
        ^
        (match t.config.Rfd_bgp.Config.damping_mode with
        | Rfd_bgp.Config.Plain -> ""
        | Rfd_bgp.Config.Rcn -> "+rcn"
        | Rfd_bgp.Config.Selective -> "+selective"))
    (match t.faults with
    | Some plan when not (Rfd_faults.Fault_plan.is_trivial plan) ->
        ", faults=" ^ plan.Rfd_faults.Fault_plan.name
    | Some _ | None -> "")
