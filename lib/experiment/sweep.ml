module Supervisor = Rfd_engine.Supervisor

type point = {
  pulses : int;
  convergence_time : float;
  message_count : int;
  peak_damped : int;
  result : Runner.result;
}

type job = { job_scenario : Scenario.t; job_seed : int; job_pulses : int }

type failure_reason =
  | Crashed of string
  | Budget_exceeded of Runner.result
  | Timed_out of { attempts : int; deadline : float }
  | Interrupted

type failure = {
  failed_seed : int;
  failed_pulses : int;
  failed_topology : string;
  reason : failure_reason;
}

type t = {
  label : string;
  base : Scenario.t;
  points : point list;
  failures : failure list;
}

let default_pulses = List.init 10 (fun i -> i + 1)

(* Pre-build the topology a job's run would construct, so the jobs of a
   sweep that share a graph reuse it instead of rebuilding it per point.
   Runner.run builds its graph with the same Scenario.build_graph, so the
   substitution is bit-identical. A mesh reads no seed, so it is keyed by
   its shape alone (seed 0); a BA graph by (seed, shape). The caller has
   checked the scenario. *)
let materialize ?(memo = Hashtbl.create 1) (scenario : Scenario.t) =
  match scenario.Scenario.topology with
  | Scenario.Custom _ -> scenario
  | topology ->
      let seed =
        match topology with
        | Scenario.Mesh _ -> 0
        | _ -> scenario.Scenario.config.Rfd_bgp.Config.seed
      in
      let key = (seed, topology) in
      let graph =
        match Hashtbl.find_opt memo key with
        | Some graph -> graph
        | None ->
            let graph = fst (Scenario.build_graph scenario) in
            Hashtbl.add memo key graph;
            graph
      in
      { scenario with Scenario.topology = Scenario.Custom graph }

let plan ?(pulses = default_pulses) ?seeds base =
  let memo = Hashtbl.create 7 in
  let seeds =
    match seeds with
    | Some seeds -> seeds
    | None -> [ base.Scenario.config.Rfd_bgp.Config.seed ]
  in
  (* No check reads the config seed, so the base is checked once for
     every seed. An invalid base keeps its symbolic topology, and
     Runner.run reports the problem. *)
  let resolve = match Scenario.validate base with Ok () -> materialize ~memo | Error _ -> Fun.id in
  List.concat_map
    (fun seed ->
      let config = { base.Scenario.config with Rfd_bgp.Config.seed } in
      let scenario = resolve { base with Scenario.config } in
      List.map
        (fun n ->
          { job_scenario = Scenario.with_pulses scenario n; job_seed = seed; job_pulses = n })
        pulses)
    seeds

let job_key job =
  Journal.job_key job.job_scenario ~seed:job.job_seed ~pulses:job.job_pulses

(* Each job's exception is caught inside the job, with its backtrace, so
   the supervisor sees only completions and the whole batch runs before
   the earliest failing input's exception is re-raised. *)
let execute ?jobs ?budget plan =
  Supervisor.supervise ?jobs ~key:job_key
    (fun job ->
      match Runner.run ?budget job.job_scenario with
      | result -> Ok result
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    plan
  |> List.map (function
       | Supervisor.Completed { value = Ok result; _ } -> result
       | Supervisor.Completed { value = Error (e, bt); _ } ->
           Printexc.raise_with_backtrace e bt
       | Supervisor.Crashed _ | Supervisor.Timed_out _ | Supervisor.Cancelled ->
           assert false)

let point_of_result job result =
  {
    pulses = job.job_pulses;
    convergence_time = result.Runner.convergence_time;
    message_count = result.Runner.message_count;
    peak_damped = Collector.peak_damped result.Runner.collector;
    result;
  }

let failure_of job reason =
  {
    failed_seed = job.job_seed;
    failed_pulses = job.job_pulses;
    failed_topology = Scenario.topology_summary job.job_scenario.Scenario.topology;
    reason;
  }

(* ------------------------------------------------------------------ *)
(* Supervised execution: watchdogs, retries, checkpoint/resume          *)

type supervision = {
  deadline : float option;
  retries : int;
  journal : string option;
  resume : bool;
  should_stop : unit -> bool;
}

let default_supervision =
  {
    deadline = None;
    retries = 0;
    journal = None;
    resume = false;
    should_stop = (fun () -> false);
  }

(* A supervisor outcome as the journal records it. A cancelled job has no
   terminal outcome — a resumed sweep must run it — so it is [None]. *)
let terminal = function
  | Supervisor.Completed { value; _ } -> Some (Journal.Result value)
  | Supervisor.Crashed { error; _ } -> Some (Journal.Crashed error)
  | Supervisor.Timed_out { attempts; deadline } ->
      Some (Journal.Timed_out { attempts; deadline })
  | Supervisor.Cancelled -> None

(* The one place outcomes become points and failures: a crashed job
   carries its exception text, a budget-exceeded run its partial result,
   and one bad point costs exactly itself. *)
let assemble plan outcomes =
  let points, failures =
    List.fold_left2
      (fun (points, failures) job outcome ->
        let fail reason = (points, failure_of job reason :: failures) in
        match outcome with
        | Some (Journal.Result result) ->
            if Runner.status_is_budget_exceeded result.Runner.final_status then
              fail (Budget_exceeded result)
            else (point_of_result job result :: points, failures)
        | Some (Journal.Crashed msg) -> fail (Crashed msg)
        | Some (Journal.Timed_out { attempts; deadline }) ->
            fail (Timed_out { attempts; deadline })
        | None -> fail Interrupted)
      ([], []) plan outcomes
  in
  (List.rev points, List.rev failures)

let run ?label ?(pulses = default_pulses) ?seeds ?jobs ?budget
    ?(supervision = default_supervision) base =
  let label = match label with Some l -> l | None -> base.Scenario.name in
  let plan = plan ~pulses ?seeds base in
  (* Jobs whose terminal outcome is already journalled are not re-run: the
     journal payload is the marshalled result itself, so merging it back
     reproduces the uninterrupted sweep bit for bit. *)
  let journalled =
    match supervision.journal with
    | Some path when supervision.resume && Sys.file_exists path ->
        let entries = (Journal.load path).Journal.entries in
        List.map (fun job -> Hashtbl.find_opt entries (job_key job)) plan
    | _ -> List.map (fun _ -> None) plan
  in
  let fresh_jobs =
    List.filter_map
      (fun (job, prior) -> if Option.is_none prior then Some job else None)
      (List.combine plan journalled)
  in
  let writer = Option.map Journal.create supervision.journal in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close writer)
    (fun () ->
      let checkpoint job outcome =
        match (writer, terminal outcome) with
        | Some w, Some outcome -> Journal.append w ~key:(job_key job) outcome
        | None, _ | _, None -> ()
      in
      let fresh =
        Supervisor.supervise ?jobs ?deadline:supervision.deadline
          ~retries:supervision.retries ~should_stop:supervision.should_stop
          ~on_outcome:checkpoint ~key:job_key
          (fun job -> Runner.run ?budget job.job_scenario)
          fresh_jobs
      in
      (* Interleave journalled and fresh outcomes in plan order, so the
         result is indistinguishable from a single uninterrupted pass. *)
      let rec merge journalled fresh =
        match (journalled, fresh) with
        | (Some _ as prior) :: journalled, fresh -> prior :: merge journalled fresh
        | None :: journalled, outcome :: fresh -> terminal outcome :: merge journalled fresh
        | [], [] -> []
        | None :: _, [] | [], _ :: _ -> assert false
      in
      let points, failures = assemble plan (merge journalled fresh) in
      { label; base; points; failures })

let pp_failure ppf f =
  Format.fprintf ppf "topology=%s seed=%d pulses=%d: %a" f.failed_topology
    f.failed_seed f.failed_pulses
    (fun ppf -> function
      | Crashed msg -> Format.fprintf ppf "crashed: %s" msg
      | Budget_exceeded r ->
          Format.fprintf ppf "%s after %d events, %d updates observed"
            (Runner.status_to_string r.Runner.final_status)
            r.Runner.sim_events r.Runner.message_count
      | Timed_out { attempts; deadline } ->
          Format.fprintf ppf "timed out (deadline %gs, %d attempt(s))" deadline
            attempts
      | Interrupted -> Format.fprintf ppf "interrupted before running")
    f.reason

let convergence_series t =
  List.map (fun p -> (float_of_int p.pulses, p.convergence_time)) t.points

let message_series t =
  List.map (fun p -> (float_of_int p.pulses, float_of_int p.message_count)) t.points

let stable_series t =
  List.map (fun p -> (float_of_int p.pulses, p.result.Runner.time_to_stable)) t.points

let quiet_series t =
  List.map (fun p -> (float_of_int p.pulses, p.result.Runner.time_to_quiet)) t.points

let intended_series params ~interval ~tup ~pulses =
  List.map
    (fun n -> (float_of_int n, Intended.convergence_time params ~pulses:n ~interval ~tup))
    pulses

module Summary = Rfd_engine.Stats.Summary

type aggregate = { agg_pulses : int; convergence : Summary.t; messages : Summary.t }

let run_many ?(pulses = default_pulses) ?jobs ?budget ~seeds base =
  if seeds = [] then invalid_arg "Sweep.run_many: empty seed list";
  let sweep = run ~pulses ~seeds ?jobs ?budget base in
  let aggregates =
    List.map
      (fun n -> { agg_pulses = n; convergence = Summary.create (); messages = Summary.create () })
      pulses
  in
  (* Points come in plan order, which is seed-major, so every pulse
     count's samples accumulate in seed order for any jobs count, keeping
     the summaries bit-identical to sequential execution. Crashed or
     budget-exceeded runs are failures, not points: their absence shows up
     as a lower [Summary.n] instead of poisoning the means. *)
  List.iter
    (fun p ->
      match List.find_opt (fun agg -> agg.agg_pulses = p.pulses) aggregates with
      | Some agg ->
          Summary.add agg.convergence p.convergence_time;
          Summary.add agg.messages (float_of_int p.message_count)
      | None -> ())
    sweep.points;
  aggregates

let mean_convergence_series aggs =
  List.map (fun a -> (float_of_int a.agg_pulses, Summary.mean a.convergence)) aggs

let mean_message_series aggs =
  List.map (fun a -> (float_of_int a.agg_pulses, Summary.mean a.messages)) aggs
