(* rfd-sim: command-line driver for the route-flap-damping simulator.

   Subcommands:
     run       — one flap scenario, full metrics and phases
     sweep     — convergence/messages across pulse counts
     replay    — drive a recorded rfd-trace/1 update trace as the workload
     trace-gen — synthesize a heavy-tailed multi-origin flap trace
     intended  — the analytic (Section 3) calculation only
     topo      — generate a topology and print it as an edge list *)

open Cmdliner
module Scenario = Rfd.Scenario
module Svc = Rfd.Svc_protocol

(* ------------------------------------------------------------------ *)
(* Exit-code convention (documented in every subcommand's man page):
     0 — success, every requested point produced clean data
     1 — invalid input, or at least one point crashed (raised an exception)
     2 — failures, but only benign ones: budget-exceeded, watchdog
         timeout, or an interrupted (drained) sweep
   Cmdliner's own 123/124/125 still apply to CLI parse errors etc. *)

let exit_doc =
  [
    `S Cmdliner.Manpage.s_exit_status;
    `P
      "$(b,0) on success; $(b,1) on invalid input or if any point \
       $(i,crashed) (the simulation raised); $(b,2) if the only failures were \
       benign — a run budget was exceeded, a supervised job timed out, or the \
       sweep was interrupted and drained gracefully.";
  ]

let exit_crashed = 1
let exit_degraded = 2

(* The one exit path for refused input and crashes: [rfd-sim CMD: MSG] on
   stderr, exit 1. *)
let die cmd fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "rfd-sim %s: %s@." cmd msg;
      exit exit_crashed)
    fmt

(* ------------------------------------------------------------------ *)
(* The scenario spec: every run-describing flag parses into one
   [Svc.spec], the daemon's query type                                 *)

let d = Svc.default_spec

(* A topology is a wire form or, CLI-only, an edge-list file: the file's
   path travels beside the spec, and [scenario] swaps the file's graph in
   for the spec's topology. *)
let topology_or_file =
  let parse s =
    match Svc.topo_of_string s with
    | Ok topo -> Ok (topo, None)
    | Error e when not (Sys.file_exists s) ->
        Error (`Msg (e ^ " and no such edge-list file"))
    | Error _ -> Ok (d.Svc.topology, Some s)
  in
  let print ppf = function
    | topo, None -> Format.pp_print_string ppf (Svc.topo_to_string topo)
    | _, Some path -> Format.pp_print_string ppf path
  in
  Arg.conv (parse, print)

(* What the user asked to simulate, for headers: the materialized scenario
   only knows it as a custom graph. *)
let shape (spec, file) =
  match file with Some path -> path | None -> Svc.topo_to_string spec.Svc.topology

let topology_arg =
  let doc =
    "Topology: mesh:RxC, internet:N[,M] (Barabasi-Albert), line:N, ring:N, clique:N, or \
     an edge-list file."
  in
  Arg.(value & opt topology_or_file (d.Svc.topology, None) & info [ "t"; "topology" ] ~doc)

let damping_arg =
  let doc = "Damping parameters: cisco, juniper or none." in
  Arg.(
    value
    & opt
        (enum
           [
             ("cisco", Svc.Cisco);
             ("juniper", Svc.Juniper);
             ("none", Svc.No_damping);
             ("off", Svc.No_damping);
           ])
        d.Svc.damping
    & info [ "d"; "damping" ] ~doc)

let mode_arg =
  let doc = "Damping mode: plain, rcn or selective." in
  Arg.(
    value
    & opt
        (enum
           [
             ("plain", Rfd.Config.Plain);
             ("rcn", Rfd.Config.Rcn);
             ("selective", Rfd.Config.Selective);
           ])
        d.Svc.mode
    & info [ "m"; "mode" ] ~doc)

let policy_arg =
  let doc = "Routing policy: shortest or no-valley." in
  Arg.(
    value
    & opt
        (enum [ ("shortest", Scenario.Announce_all); ("no-valley", Scenario.No_valley) ])
        d.Svc.policy
    & info [ "p"; "policy" ] ~doc)

let pulses_arg =
  let doc = "Number of withdrawal/announcement pulses." in
  Arg.(value & opt int d.Svc.pulses & info [ "n"; "pulses" ] ~doc)

let interval_arg =
  let doc = "Flap interval in seconds." in
  Arg.(value & opt float d.Svc.interval & info [ "i"; "interval" ] ~doc)

let mrai_arg =
  let doc = "MRAI in seconds (0 disables)." in
  Arg.(value & opt float d.Svc.mrai & info [ "mrai" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int d.Svc.seed & info [ "s"; "seed" ] ~doc)

let isp_arg =
  let doc = "Node the flapping origin attaches to (-1 = random)." in
  Arg.(value & opt int d.Svc.isp & info [ "isp" ] ~doc)

let table_hint_arg =
  let doc =
    "Initial prefix capacity of each router's slot columns: every session's \
     RIB-In, RIB-Out, MRAI deadlines and queue and damping penalties, and the \
     Loc-RIB. Columns double past it as higher prefix ids arrive. Lower it to \
     1-2 for Internet-scale single-origin runs so tens of thousands of \
     low-degree routers don't pay for unused slots."
  in
  Arg.(value & opt int d.Svc.table_hint & info [ "table-hint" ] ~docv:"N" ~doc)

let reuse_tick_arg =
  let doc =
    "Schedule reuse timers on an RFC 2439 reuse-list tick wheel with this tick period \
     (seconds) instead of one exact timer per suppressed route. Reuse then happens at \
     the first tick boundary at or after the exact reuse instant."
  in
  Arg.(
    value & opt (some float) d.Svc.reuse_tick & info [ "reuse-tick" ] ~docv:"SECONDS" ~doc)

let background_arg =
  let doc =
    "Announce $(docv) steady background prefixes (one per seeded-random \
     origin router) before the flap phase, so damping acts on a loaded RIB."
  in
  Arg.(value & opt int d.Svc.background & info [ "background" ] ~docv:"N" ~doc)

let flappers_arg =
  let doc =
    "Add $(docv) background flapper prefixes — extra origins that keep \
     withdrawing and re-announcing concurrently with the measured flap, with \
     heavy-tailed (Pareto) inter-flap gaps. 0 disables the workload."
  in
  Arg.(value & opt int d.Svc.flappers & info [ "background-flappers" ] ~docv:"N" ~doc)

let flaps_arg =
  let doc = "Withdraw/announce pairs each background flapper performs." in
  Arg.(value & opt int d.Svc.flaps & info [ "flaps" ] ~docv:"N" ~doc)

let flap_gap_arg =
  let doc = "Mean gap (seconds) between a background flapper's events." in
  Arg.(value & opt float d.Svc.flap_gap & info [ "flap-gap" ] ~docv:"SECONDS" ~doc)

let flap_alpha_arg =
  let doc =
    "Pareto tail exponent of the inter-flap gaps (smaller = heavier tail; \
     must be positive)."
  in
  Arg.(value & opt float d.Svc.flap_alpha & info [ "flap-alpha" ] ~docv:"ALPHA" ~doc)

let flap_seed_arg =
  let doc = "Seed of the background-flapper workload (independent of --seed)." in
  Arg.(value & opt int d.Svc.flap_seed & info [ "flap-seed" ] ~docv:"SEED" ~doc)

(* The reuse tick and the background-flapper workload. [replay]'s trace is
   its workload, so it takes neither and keeps their defaults. *)
let workload_flags =
  let set reuse_tick flappers flaps flap_gap flap_alpha flap_seed spec =
    { spec with Svc.reuse_tick; flappers; flaps; flap_gap; flap_alpha; flap_seed }
  in
  Term.(
    const set $ reuse_tick_arg $ flappers_arg $ flaps_arg $ flap_gap_arg $ flap_alpha_arg
    $ flap_seed_arg)

(* Shared by run, sweep, replay and query; [pulses] is the one flag whose
   meaning differs between them. The path of an edge-list file topology,
   if any, travels beside the spec. *)
let spec_term ?(workload = workload_flags) pulses =
  let make (topology, file) damping mode policy pulses interval mrai seed isp table_hint
      background set_workload =
    ( set_workload
        {
          d with
          Svc.topology;
          damping;
          mode;
          policy;
          pulses;
          interval;
          mrai;
          seed;
          isp;
          table_hint;
          background;
        },
      file )
  in
  Term.(
    const make $ topology_arg $ damping_arg $ mode_arg $ policy_arg $ pulses $ interval_arg
    $ mrai_arg $ seed_arg $ isp_arg $ table_hint_arg $ background_arg $ workload)

(* The daemon's builder, then what the wire cannot carry — an edge-list
   graph, a probe, faults, a replay workload — re-checked as a whole and
   resolved as the daemon resolves it, so a run's digest and a sweep's
   job keys equal the daemon's for the same flags. A file's graph is built
   on the spec's default topology, lazily resolved and so never built, at
   isp 0; the parser holds it to the admission cap, and [Scenario.validate]
   checks the isp range against its own size. *)
let scenario cmd ?(probe = Scenario.No_probe) ?faults ?workload (spec, file) =
  let built =
    match file with
    | None -> Svc.scenario_of_spec spec
    | Some path ->
        let g =
          match In_channel.with_open_bin path In_channel.input_all with
          | exception Sys_error msg -> die cmd "%s" msg
          | doc -> (
              match Rfd.Edge_list.parse_graph doc with
              | Ok g -> g
              | Error e -> die cmd "%s: %s" path e)
        in
        Result.map
          (fun s ->
            {
              s with
              Scenario.topology = Scenario.Custom g;
              isp = (if spec.Svc.isp < 0 then `Random else `Node spec.Svc.isp);
            })
          (Svc.scenario_of_spec { spec with Svc.isp = min spec.Svc.isp 0 })
  in
  match built with
  | Error msg -> die cmd "%s" msg
  | Ok s -> (
      let s =
        {
          s with
          Scenario.probe;
          faults;
          workload = Option.value workload ~default:s.Scenario.workload;
        }
      in
      match Scenario.validate s with
      | Ok () -> Rfd.Sweep.materialize s
      | Error msg ->
          die cmd "%s" (match file with Some path -> path ^ ": " ^ msg | None -> msg))

(* ------------------------------------------------------------------ *)
(* Run budgets and fault injection (shared by run and sweep)           *)

let max_events_arg =
  let doc =
    "Stop a run after $(docv) simulator events (reported as \
     budget-exceeded); off by default."
  in
  Arg.(value & opt (some int) None & info [ "max-events" ] ~docv:"N" ~doc)

let max_sim_time_arg =
  let doc =
    "Stop a run once the virtual clock would pass $(docv) seconds \
     (reported as budget-exceeded); off by default."
  in
  Arg.(value & opt (some float) None & info [ "max-sim-time" ] ~docv:"SECONDS" ~doc)

(* An invalid limit is refused input, like any other: exit 1. *)
let budget_term cmd =
  let make max_events max_sim_time =
    try Rfd.Runner.budget ?max_events ?max_sim_time ()
    with Invalid_argument msg -> die cmd "%s" msg
  in
  Term.(const make $ max_events_arg $ max_sim_time_arg)

let loss_arg =
  let doc = "Per-message loss probability on every directed link." in
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc)

let dup_arg =
  let doc = "Per-message duplication probability on every directed link." in
  Arg.(value & opt float 0. & info [ "dup" ] ~docv:"P" ~doc)

let chaos_flaps_arg =
  let doc = "Seeded-random background link fail/recover cycles during the flap phase." in
  Arg.(value & opt int 0 & info [ "chaos-flaps" ] ~docv:"N" ~doc)

let chaos_window_arg =
  let doc = "Window (seconds after the flap start) in which random failures begin." in
  Arg.(value & opt float 120. & info [ "chaos-window" ] ~docv:"SECONDS" ~doc)

let chaos_downtime_arg =
  let doc = "Mean outage duration of a random link failure (exponential)." in
  Arg.(value & opt float 30. & info [ "chaos-downtime" ] ~docv:"SECONDS" ~doc)

let chaos_seed_arg =
  let doc = "Seed for the fault plan's random parts (independent of --seed)." in
  Arg.(value & opt int 1 & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let faults_term =
  let make loss dup flaps window downtime seed =
    if loss = 0. && dup = 0. && flaps = 0 then None
    else
      Some
        (Rfd.Fault_plan.make ~name:"cli-chaos" ~seed
           ~degradation:{ Rfd.Fault_plan.loss; duplication = dup }
           ?random_flaps:
             (if flaps > 0 then
                Some
                  {
                    Rfd.Fault_plan.cycles = flaps;
                    window;
                    down_mean = downtime;
                    candidates = [];
                  }
              else None)
           ())
  in
  Term.(
    const make $ loss_arg $ dup_arg $ chaos_flaps_arg $ chaos_window_arg
    $ chaos_downtime_arg $ chaos_seed_arg)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let transcript_arg =
  let doc = "Print the first $(docv) protocol-trace lines of the flap phase." in
  Arg.(value & opt (some int) None & info [ "transcript" ] ~docv:"N" ~doc)

let partitions_arg =
  let doc =
    "Split the topology into $(docv) partitions, simulated on one worker domain \
     each in conservative lockstep epochs. Results are bit-identical for every \
     partition count, so this changes only wall time."
  in
  Arg.(value & opt int 1 & info [ "partitions" ] ~docv:"N" ~doc)

let pp_par_stats s =
  Format.printf "partitions: %d (cut edges %d, epochs %d, per-partition events %s)@."
    s.Rfd.Runner.partitions s.Rfd.Runner.cut_edges s.Rfd.Runner.epochs
    (String.concat "/"
       (Array.to_list (Array.map string_of_int s.Rfd.Runner.per_partition_events)));
  let k = s.Rfd.Runner.events_by_kind in
  Format.printf "events by kind: delivery=%d flush=%d reuse=%d wheel=%d op=%d@."
    k.Rfd.Network.deliveries k.Rfd.Network.flushes k.Rfd.Network.reuses k.Rfd.Network.wheels
    k.Rfd.Network.ops

let probe_arg =
  let doc = "Trace penalties at the first router at this hop distance from the origin." in
  Arg.(value & opt (some int) None & info [ "probe-distance" ] ~doc)

let print_digest_arg =
  let doc =
    "Print the deterministic result digest (host timings excluded) as the final \
     line — the fingerprint CI diffs across partition counts."
  in
  Arg.(value & flag & info [ "print-digest" ] ~doc)

let run_cmd =
  let action spec probe transcript budget faults partitions print_digest =
    let probe = Option.map (fun hops -> Scenario.At_distance hops) probe in
    let scenario = scenario "run" ?probe ?faults spec in
    (match transcript with
    | Some n when n < 0 -> die "run" "--transcript must be >= 0"
    | Some _ | None -> ());
    let lines = ref (fun () -> []) in
    let on_bus bus =
      Option.iter (fun limit -> lines := Rfd.Recorder.transcript ~limit bus) transcript
    in
    let r, par_stats =
      try Rfd.Runner.run_partitioned ~budget ~on_bus ~partitions scenario
      with e -> die "run" "crashed: %s" (Printexc.to_string e)
    in
    Format.printf "topology: %s@.%a@.@." (shape spec) Rfd.Runner.pp_result r;
    pp_par_stats par_stats;
    (match
       ( Rfd.Collector.dropped_updates r.Rfd.Runner.collector,
         Rfd.Collector.duplicated_updates r.Rfd.Runner.collector )
     with
    | 0, 0 -> ()
    | dropped, duplicated ->
        Format.printf "faults: dropped=%d duplicated=%d@." dropped duplicated);
    Format.printf "oracle: time-to-stable=%.1fs time-to-quiet=%.1fs final=%s@."
      r.Rfd.Runner.time_to_stable r.Rfd.Runner.time_to_quiet
      (Rfd.Runner.status_to_string r.Rfd.Runner.final_status);
    Format.printf "phases:@.";
    List.iter (fun s -> Format.printf "  %a@." Rfd.Phases.pp_span s) r.Rfd.Runner.spans;
    (match Rfd.Collector.probed_pairs r.Rfd.Runner.collector with
    | [] -> ()
    | pairs ->
        List.iter
          (fun (router, peer) ->
            match Rfd.Collector.penalty_trace r.Rfd.Runner.collector ~router ~peer with
            | Some ts when Rfd.Timeseries.length ts > 0 ->
                Format.printf "penalty trace r%d <- peer %d:@." router peer;
                Rfd.Timeseries.iter ts (fun ~time ~value ->
                    Format.printf "  %10.2f  %8.1f@." time value)
            | _ -> ())
          pairs);
    let intended =
      match scenario.Scenario.config.Rfd.Config.damping with
      | Some params ->
          Rfd.Intended.convergence_time params ~pulses:scenario.Scenario.pulses
            ~interval:scenario.Scenario.flap_interval ~tup:r.Rfd.Runner.tup
      | None -> r.Rfd.Runner.tup
    in
    Format.printf "@.intended convergence for this flap pattern: %.0f s@." intended;
    (match transcript with
    | None -> ()
    | Some n ->
        Format.printf "@.protocol transcript (first %d events):@." n;
        List.iter (Format.printf "%s@.") (!lines ()));
    if print_digest then Format.printf "digest: %s@." (Rfd.Runner.result_digest r);
    if Rfd.Runner.status_is_budget_exceeded r.Rfd.Runner.final_status then
      exit exit_degraded
  in
  let doc = "run one flap scenario and report metrics" in
  Cmd.v (Cmd.info "run" ~doc ~man:exit_doc)
    Term.(
      const action $ spec_term pulses_arg $ probe_arg $ transcript_arg $ budget_term "run"
      $ faults_term $ partitions_arg $ print_digest_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let max_pulses_arg =
  let doc = "Sweep pulse counts 1..$(docv)." in
  Arg.(value & opt int 10 & info [ "max-pulses" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains running sweep points in parallel (0 = all cores minus one). \
     Results are bit-identical for any value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Per-job wall-clock deadline in seconds. A point that overruns it is marked \
     timed-out (and retried if $(b,--retries) allows) instead of stalling the sweep."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc =
    "Re-run a crashed or timed-out point up to $(docv) extra times, with \
     deterministic seeded backoff. A retried success is bit-identical to a \
     first-try success."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let journal_arg =
  let doc =
    "Append every completed point to $(docv) (one fsync'd line per job), so an \
     interrupted sweep can be finished later with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume from journal $(docv): points it already records are skipped and their \
     stored results merged back, making the finished sweep bit-identical to an \
     uninterrupted run. Implies $(b,--journal) $(docv) (newly completed points are \
     appended to the same file)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

(* SIGINT and SIGTERM trigger the same graceful drain: in-flight points
   finish (and are journalled), queued points are abandoned as
   Interrupted failures — so a supervisor's `kill` gets the same clean
   checkpoint a Ctrl-C does. A second signal falls back to die-now. *)
let interrupted = Atomic.make false

let install_drain_signals () =
  let handler =
    Sys.Signal_handle
      (fun _ ->
        if Atomic.exchange interrupted true then exit 130
        else
          prerr_endline
            "rfd-sim: interrupted — draining in-flight points (again to kill)")
  in
  List.iter
    (fun signal ->
      try ignore (Sys.signal signal handler) with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let sweep_cmd =
  let action spec max_pulses jobs budget faults deadline retries journal resume =
    let scenario = scenario "sweep" ?faults spec in
    let jobs = if jobs <= 0 then Rfd.Supervisor.default_jobs () else jobs in
    let pulses = List.init max_pulses (fun i -> i + 1) in
    let supervision =
      {
        Rfd.Sweep.deadline;
        retries;
        journal = (match resume with Some _ as r -> r | None -> journal);
        resume = resume <> None;
        should_stop = (fun () -> Atomic.get interrupted);
      }
    in
    install_drain_signals ();
    (* Points fail inside the sweep; what escapes it is a journal this
       build refuses (an older version) or cannot open. *)
    let sweep =
      try Rfd.Sweep.run ~pulses ~jobs ~budget ~supervision scenario
      with Failure msg | Sys_error msg -> die "sweep" "%s" msg
    in
    let tup =
      match sweep.Rfd.Sweep.points with
      | p :: _ -> p.Rfd.Sweep.result.Rfd.Runner.tup
      | [] -> 30.
    in
    let columns =
      [
        ("convergence(s)", Rfd.Sweep.convergence_series sweep);
        ("stable(s)", Rfd.Sweep.stable_series sweep);
        ("quiet(s)", Rfd.Sweep.quiet_series sweep);
        ("messages", Rfd.Sweep.message_series sweep);
      ]
      @
      match scenario.Scenario.config.Rfd.Config.damping with
      | Some params ->
          let interval = scenario.Scenario.flap_interval in
          [ ("intended(s)", Rfd.Sweep.intended_series params ~interval ~tup ~pulses) ]
      | None -> []
    in
    print_string (Rfd.Report.series ~x_label:"pulses" ~columns ());
    (match sweep.Rfd.Sweep.failures with
    | [] -> ()
    | failures ->
        Format.printf "@.failures: %d of %d point(s) on %s produced no clean data@."
          (List.length failures)
          (List.length sweep.Rfd.Sweep.points + List.length failures)
          (shape spec);
        List.iter (fun f -> Format.printf "  %a@." Rfd.Sweep.pp_failure f) failures);
    let crashed =
      List.exists
        (fun f -> match f.Rfd.Sweep.reason with Rfd.Sweep.Crashed _ -> true | _ -> false)
        sweep.Rfd.Sweep.failures
    in
    if crashed then exit exit_crashed
    else if sweep.Rfd.Sweep.failures <> [] then exit exit_degraded
  in
  let doc = "sweep pulse counts and print convergence/message series" in
  Cmd.v (Cmd.info "sweep" ~doc ~man:exit_doc)
    Term.(
      const action $ spec_term (const d.Svc.pulses) $ max_pulses_arg $ jobs_arg
      $ budget_term "sweep" $ faults_term $ deadline_arg $ retries_arg $ journal_arg
      $ resume_arg)

(* ------------------------------------------------------------------ *)
(* replay / trace-gen                                                  *)

let replay_cmd =
  let action trace_file spec budget partitions print_digest =
    let trace =
      match Rfd.Update_trace.of_file trace_file with
      | Ok trace -> trace
      | Error e -> die "replay" "%s: %s" trace_file e
      | exception Sys_error msg -> die "replay" "%s" msg
    in
    let scenario = scenario "replay" ~workload:(Scenario.Replay trace) spec in
    let r, par_stats =
      try Rfd.Runner.run_partitioned ~budget ~partitions scenario
      with e -> die "replay" "crashed: %s" (Printexc.to_string e)
    in
    Format.printf "replayed %d trace event(s) over %d prefix(es) on %s@."
      (Rfd.Update_trace.event_count trace)
      (Rfd.Update_trace.max_prefix trace)
      (shape spec);
    Format.printf "%a@." Rfd.Runner.pp_result r;
    pp_par_stats par_stats;
    Format.printf "oracle: time-to-stable=%.1fs time-to-quiet=%.1fs final=%s@."
      r.Rfd.Runner.time_to_stable r.Rfd.Runner.time_to_quiet
      (Rfd.Runner.status_to_string r.Rfd.Runner.final_status);
    if print_digest then Format.printf "digest: %s@." (Rfd.Runner.result_digest r);
    if Rfd.Runner.status_is_budget_exceeded r.Rfd.Runner.final_status then
      exit exit_degraded
  in
  let trace_file_arg =
    let doc = "The rfd-trace/1 update trace to replay." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let replay_pulses_arg =
    let doc =
      "Withdrawal/announcement pulses of the measured origin. Defaults to 0: \
       the replayed trace is the traffic, the measured origin only announces \
       once and damping of the recorded prefixes is what is under study."
    in
    Arg.(value & opt int 0 & info [ "n"; "pulses" ] ~doc)
  in
  let doc = "replay a recorded rfd-trace/1 update trace as the scenario workload" in
  let man =
    exit_doc
    @ [
        `S Cmdliner.Manpage.s_description;
        `P
          "Reads an $(b,rfd-trace/1) file (one $(i,time prefix \
           announce|withdraw [origin]) event per line), validates it against \
           the topology, and schedules every recorded event during the flap \
           phase. Prefixes whose first recorded event is a withdrawal are \
           originated before the measurement starts, so the withdrawal has \
           reachability to revoke. Replays are deterministic: the same trace, \
           topology and seed produce bit-identical digests for any \
           $(b,--partitions) value.";
      ]
  in
  Cmd.v (Cmd.info "replay" ~doc ~man)
    Term.(
      const action $ trace_file_arg
      $ spec_term ~workload:(Term.const Fun.id) replay_pulses_arg
      $ budget_term "replay"
      $ partitions_arg $ print_digest_arg)

let trace_gen_cmd =
  let action flappers flaps gap alpha seed nodes first_prefix =
    match
      Rfd.Update_trace.flappers ~seed ~nodes ~count:flappers ~flaps ~mean_gap:gap ~alpha
        ~first_prefix
    with
    | trace -> print_string (Rfd.Update_trace.to_string trace)
    | exception Invalid_argument msg -> die "trace-gen" "%s" msg
  in
  let gen_flappers_arg =
    let doc = "Flapping prefixes to synthesize." in
    Arg.(value & opt int 100 & info [ "flappers" ] ~docv:"N" ~doc)
  in
  let nodes_arg =
    let doc =
      "Home routers to spread the flappers over (must not exceed the node \
       count of the topology the trace will be replayed on)."
    in
    Arg.(value & opt int 9 & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let first_prefix_arg =
    let doc =
      "Lowest prefix id to use (ids below it are reserved: 0 is the measured \
       origin prefix, 1..B the background range of the replaying scenario)."
    in
    Arg.(value & opt int 1 & info [ "first-prefix" ] ~docv:"ID" ~doc)
  in
  let doc = "synthesize a heavy-tailed multi-origin flap trace (rfd-trace/1)" in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P
        "Writes to stdout the same seeded workload a $(b,--background-flappers) \
         run expands internally: per flapper, withdraw/announce pairs separated \
         by Pareto-distributed gaps. Piping it into $(b,rfd-sim replay) with a \
         matching topology and seed reproduces that run's digest exactly.";
    ]
  in
  Cmd.v (Cmd.info "trace-gen" ~doc ~man)
    Term.(
      const action $ gen_flappers_arg $ flaps_arg $ flap_gap_arg $ flap_alpha_arg
      $ flap_seed_arg $ nodes_arg $ first_prefix_arg)

(* ------------------------------------------------------------------ *)
(* intended                                                            *)

let intended_cmd =
  let action damping pulses interval tup =
    let params =
      match damping with
      | Svc.Juniper -> Rfd.Params.juniper
      | Svc.Cisco | Svc.No_damping -> Rfd.Params.cisco
    in
    let s = Rfd.Intended.final_state params ~pulses ~interval in
    Format.printf "parameters: %a@." Rfd.Params.pp params;
    Format.printf "penalty right after the final announcement: %.1f@."
      s.Rfd.Intended.penalty;
    Format.printf "suppressed at that moment: %b@." s.Rfd.Intended.suppressed;
    Format.printf "suppression onset: %d pulses@."
      (Rfd.Intended.suppression_onset params ~interval);
    Format.printf "intended convergence time: %.1f s@."
      (Rfd.Intended.convergence_time params ~pulses ~interval ~tup)
  in
  let tup_arg =
    let doc = "Assumed plain BGP up-convergence time (seconds)." in
    Arg.(value & opt float 30. & info [ "tup" ] ~doc)
  in
  let doc = "print the Section 3 analytic (intended) damping behaviour" in
  Cmd.v (Cmd.info "intended" ~doc)
    Term.(const action $ damping_arg $ pulses_arg $ interval_arg $ tup_arg)

(* ------------------------------------------------------------------ *)
(* topo / metrics                                                      *)

(* The graph runs simulate: the spec-built scenario's topology, resolved
   by [Sweep.materialize] with the [Scenario.build_graph] [Runner.run]
   uses. *)
let graph cmd (topology, file) seed =
  match (scenario cmd ({ d with Svc.topology; seed }, file)).Scenario.topology with
  | Scenario.Custom g -> g
  | Scenario.Mesh _ | Scenario.Internet _ -> assert false

let topo_cmd =
  let action topology seed relations =
    let graph = graph "topo" topology seed in
    if relations then
      print_string (Rfd.Edge_list.print (Rfd.Relations.infer_by_degree graph))
    else print_string (Rfd.Edge_list.print_graph graph)
  in
  let relations_arg =
    let doc = "Annotate edges with degree-inferred AS relationships." in
    Arg.(value & flag & info [ "relations" ] ~doc)
  in
  let doc = "generate a topology and print it as an edge list" in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const action $ topology_arg $ seed_arg $ relations_arg)

let metrics_cmd =
  let action topology seed =
    let graph = graph "metrics" topology seed in
    let s = Rfd.Topo_metrics.summarize graph in
    Format.printf "%a@." Rfd.Topo_metrics.pp_summary s;
    (match Rfd.Topo_metrics.power_law_alpha graph with
    | Some alpha -> Format.printf "power-law tail exponent (MLE): %.2f@." alpha
    | None -> Format.printf "power-law tail exponent: n/a (tail too small)@.");
    Format.printf "degree histogram:@.";
    List.iter
      (fun (degree, count) -> Format.printf "  degree %3d: %d node(s)@." degree count)
      (Rfd.Graph.degree_histogram graph)
  in
  let doc = "print structural metrics of a topology" in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const action $ topology_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* query — client side of the rfd-simd daemon                          *)

let socket_arg =
  let doc = "Unix-domain socket of the rfd-simd daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let fleet_arg =
  let doc =
    "Comma-separated rfd-simd sockets forming a sharded fleet. The query is \
     routed to the shard owning its key and fails over, through per-shard \
     circuit breakers, to the next healthy shard on refusal or transport \
     error. Socket order is the shard map: every client of one fleet must \
     pass the same list in the same order."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' string)) None
    & info [ "fleet" ] ~docv:"SOCK1,SOCK2,..." ~doc)

let query_timeout_arg =
  let doc =
    "Socket send/receive timeout in seconds — also how long to wait for an \
     uncached result."
  in
  Arg.(value & opt float 300. & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let connect_retry_arg =
  let doc =
    "Keep retrying a failing connect for up to $(docv) seconds (absorbs the \
     daemon-startup race in scripts)."
  in
  Arg.(value & opt float 0. & info [ "connect-retry" ] ~docv:"SECONDS" ~doc)

let attempts_arg =
  let doc =
    "Total tries when the daemon sheds the query as overloaded, spaced by the \
     deterministic jittered backoff."
  in
  Arg.(value & opt int 5 & info [ "attempts" ] ~docv:"N" ~doc)

let stats_flag =
  let doc = "Fetch the daemon's stats JSON instead of querying." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let ping_flag =
  let doc = "Just check the daemon is alive." in
  Arg.(value & flag & info [ "ping" ] ~doc)

let query_man =
  [
    `S Cmdliner.Manpage.s_exit_status;
    `P
      "$(b,0) when a result body was printed (cache hit or fresh run); \
       $(b,1) on transport errors, invalid queries and journalled crashes; \
       $(b,2) on benign refusals — overloaded after every retry, a \
       journalled watchdog timeout, or a draining server.";
  ]

(* Shared by the single-socket and fleet paths: print the body (stdout
   stays pure JSON — CI diffs it byte-for-byte across hit, miss, restart
   and failover) and map refusal codes onto the exit-code convention. *)
let finish_query = function
  | Error e -> die "query" "%s" e
  | Ok (Svc.Result { cached; body }) ->
      Format.eprintf "rfd-sim query: cache %s@."
        (if cached then "hit" else "miss");
      print_endline body
  | Ok (Svc.Refused { code; body }) -> (
      Format.eprintf "rfd-sim query: refused (%s): %s@."
        (Svc.error_code_to_string code)
        body;
      match code with
      | Svc.Overloaded | Svc.Timeout | Svc.Shutting_down | Svc.Wrong_shard ->
          exit exit_degraded
      | Svc.Invalid | Svc.Crashed -> exit exit_crashed)
  | Ok Svc.Pong | Ok (Svc.Stats _) -> die "query" "unexpected response"

let query_single ~timeout ~connect_retry ~attempts ~do_ping ~do_stats socket
    spec =
  let client =
    match Rfd.Svc_client.connect ~timeout ~retry_for:connect_retry socket with
    | client -> client
    | exception e -> die "query" "cannot connect to %s: %s" socket (Printexc.to_string e)
  in
  Fun.protect ~finally:(fun () -> Rfd.Svc_client.close client) @@ fun () ->
  if do_ping then begin
    if Rfd.Svc_client.ping client then print_endline "pong"
    else die "query" "no pong from %s" socket
  end
  else if do_stats then begin
    match Rfd.Svc_client.stats client with
    | Ok body -> print_endline body
    | Error e -> die "query" "%s" e
  end
  else finish_query (Rfd.Svc_client.query ~attempts client spec)

let query_fleet ~timeout ~connect_retry ~attempts ~do_ping ~do_stats sockets
    spec =
  let fleet =
    match Rfd.Svc_fleet.create ~timeout ~connect_retry sockets with
    | fleet -> fleet
    | exception Invalid_argument msg -> die "query" "bad --fleet: %s" msg
  in
  Fun.protect ~finally:(fun () -> Rfd.Svc_fleet.close fleet) @@ fun () ->
  if do_ping then begin
    let healthy = ref 0 in
    List.iteri
      (fun i socket ->
        if Rfd.Svc_fleet.ping_shard fleet i then incr healthy
        else Format.eprintf "rfd-sim query: no pong from shard %d (%s)@." i socket)
      sockets;
    Format.printf "pong %d/%d@." !healthy (List.length sockets);
    if !healthy = 0 then exit exit_crashed
    else if !healthy < List.length sockets then exit exit_degraded
  end
  else if do_stats then begin
    (* One stats JSON line per shard, in shard order. *)
    let degraded = ref false in
    List.iter
      (fun (socket, body) ->
        match body with
        | Ok body -> print_endline body
        | Error e ->
            degraded := true;
            Format.eprintf "rfd-sim query: stats from %s: %s@." socket e)
      (Rfd.Svc_fleet.stats fleet);
    if !degraded then exit exit_degraded
  end
  else finish_query (Rfd.Svc_fleet.query ~attempts fleet spec)

let query_cmd =
  let action socket fleet (spec, file) timeout connect_retry attempts do_stats do_ping =
    if Option.is_some file then
      die "query" "an edge-list file topology cannot be sent to a daemon";
    match (socket, fleet) with
    | Some _, Some _ -> die "query" "--socket and --fleet are exclusive"
    | None, None -> die "query" "one of --socket or --fleet is required"
    | Some socket, None ->
        query_single ~timeout ~connect_retry ~attempts ~do_ping ~do_stats socket
          spec
    | None, Some sockets ->
        query_fleet ~timeout ~connect_retry ~attempts ~do_ping ~do_stats sockets
          spec
  in
  let doc = "query an rfd-simd daemon (or sharded fleet) for a simulation result" in
  Cmd.v
    (Cmd.info "query" ~doc ~man:query_man)
    Term.(
      const action $ socket_arg $ fleet_arg $ spec_term pulses_arg $ query_timeout_arg
      $ connect_retry_arg $ attempts_arg $ stats_flag $ ping_flag)

(* ------------------------------------------------------------------ *)
(* journal-compact                                                     *)

let journal_compact_cmd =
  let action check path =
    if check then begin
      match Rfd.Journal.check path with
      | r ->
          Format.printf
            "checked %s: %d valid line(s), %d duplicate(s), %d corrupt \
             line(s)%s@."
            path r.Rfd.Journal.checked_valid r.Rfd.Journal.checked_duplicates
            r.Rfd.Journal.checked_corrupt
            (if r.Rfd.Journal.checked_torn then ", torn tail" else "");
          if r.Rfd.Journal.checked_corrupt > 0 then exit exit_crashed
      | exception (Failure msg | Sys_error msg) -> die "journal-compact" "%s" msg
    end
    else
      match Rfd.Journal.compact path with
      | c ->
          Format.printf
            "compacted %s: kept %d entr%s, dropped %d duplicate(s), %d corrupt \
             line(s)@."
            path c.Rfd.Journal.kept
            (if c.Rfd.Journal.kept = 1 then "y" else "ies")
            c.Rfd.Journal.dropped_duplicates c.Rfd.Journal.dropped_corrupt
      | exception (Failure msg | Sys_error msg) -> die "journal-compact" "%s" msg
  in
  let check_arg =
    let doc =
      "Verify only — digest-check every line and report valid / duplicate / \
       corrupt counts without writing a byte (safe on a journal a live \
       daemon holds open). Exits 1 if any corrupt line is found; a torn \
       unterminated tail (the benign kill -9 signature) is reported but is \
       not corruption."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let file_arg =
    let doc = "The rfd-journal/5 file to compact (or, with --check, verify)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let doc =
    "rewrite a sweep/daemon journal keeping only the newest line per job"
  in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P
        "Compaction is atomic (write to a temp file, fsync, rename) and \
         byte-preserving: surviving lines are copied verbatim, so results \
         replayed from the compacted journal are identical to before. A \
         journal with no duplicate, corrupt or torn line is left as it is. \
         Do not run it while a daemon or sweep holds the journal open for \
         writing. $(b,--check) never writes and is safe at any time.";
    ]
  in
  Cmd.v
    (Cmd.info "journal-compact" ~doc ~man)
    Term.(const action $ check_arg $ file_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "route flap damping simulator (ICDCS 2005 reproduction)" in
  let info = Cmd.info "rfd-sim" ~version:Rfd.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            replay_cmd;
            trace_gen_cmd;
            intended_cmd;
            topo_cmd;
            metrics_cmd;
            query_cmd;
            journal_compact_cmd;
          ]))
