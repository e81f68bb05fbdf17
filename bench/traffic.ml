(* `traffic` experiment: heavy-traffic multi-origin workloads — how much
   per-prefix damping state one router can carry. A small fixed topology
   (3x3 mesh + origin stub) is loaded with a large steady background RIB
   plus a pool of concurrently flapping prefixes with heavy-tailed
   (Pareto) inter-flap gaps, and each point reports simulator throughput
   and peak RSS. The interesting axis is prefixes per router, not nodes —
   the complement of the `scale` experiment.

   Peak RSS is VmHWM from /proc/self/status — a process-wide high-water
   mark, so points must run in ascending prefix-count order for the
   per-point figure to be attributable to that point. On platforms
   without procfs the field is reported as 0 and the CI guard skips. *)

module Scenario = Rfd.Scenario
module Runner = Rfd.Runner
module Config = Rfd.Config
module Json = Rfd.Json

(* (background prefixes, flappers). Every prefix reaches every router of
   the small mesh, so prefixes/router = background + flappers + 1. *)
let quick_points = [ (20_000, 200) ]
let paper_points = [ (50_000, 500); (100_000, 1_000) ]
let flaps = 3
let mean_gap = 60.
let alpha = 1.5

type point = {
  background : int;
  flappers : int;
  prefixes_per_router : int;
  wall_seconds : float;
  sim_events : int;
  events_per_sec : float;
  message_count : int;
  alloc : Host.alloc;  (** words the run allocated and promoted *)
  peak_rss_kb : int;
  layers : Rfd.Network.event_counts;  (** [sim_events] by kind *)
}

let run_point (opts : Context.opts) (background, flappers) =
  let config =
    {
      (Context.damping_config opts) with
      (* Pre-size the per-session slot tables to the full prefix range so
         the measured RSS is steady-state capacity, not growth churn. *)
      Config.prefix_table_hint = background + flappers + 1;
    }
  in
  let scenario =
    Scenario.make
      ~name:(Printf.sprintf "traffic-%d+%d" background flappers)
      ~config ~pulses:3 ~background_prefixes:background
      ~workload:
        (Scenario.Flappers { count = flappers; flaps; mean_gap; alpha; seed = 1 })
      (Scenario.Mesh { rows = 3; cols = 3 })
  in
  let (result, stats), alloc =
    Host.measure_alloc (fun () -> Runner.run_partitioned ~partitions:1 scenario)
  in
  let wall = result.Runner.wall_seconds in
  {
    background;
    flappers;
    prefixes_per_router = background + flappers + 1;
    wall_seconds = wall;
    sim_events = result.Runner.sim_events;
    events_per_sec =
      (if wall > 0. then float_of_int result.Runner.sim_events /. wall else 0.);
    message_count = result.Runner.message_count;
    alloc;
    peak_rss_kb = Rfd.Procfs.peak_rss_kb ();
    layers = stats.Runner.events_by_kind;
  }

let point_to_json p =
  Json.Obj
    [
      ("background", Json.Int p.background);
      ("flappers", Json.Int p.flappers);
      ("flaps", Json.Int flaps);
      ("prefixes_per_router", Json.Int p.prefixes_per_router);
      ("wall_seconds", Json.Float p.wall_seconds);
      ("sim_events", Json.Int p.sim_events);
      ("events_per_sec", Json.Float p.events_per_sec);
      ("messages", Json.Int p.message_count);
      ("minor_words", Json.Int p.alloc.Host.minor_words);
      ("promoted_words", Json.Int p.alloc.Host.promoted_words);
      ("peak_rss_kb", Json.Int p.peak_rss_kb);
      ("layers", Host.layers_to_json p.layers);
    ]

let to_json ~quick ~seed points =
  Json.Obj
    [
      ("schema", Json.String "rfd-bench/1");
      ("experiment", Json.String "traffic");
      ("scale", Json.String (if quick then "quick" else "paper"));
      ("seed", Json.Int seed);
      ("host", Host.to_json ());
      ("points", Json.List (List.map point_to_json points));
    ]

let run (ctx : Context.t) =
  let opts = ctx.Context.opts in
  let points_spec = if opts.Context.quick then quick_points else paper_points in
  print_newline ();
  print_endline
    "== traffic: multi-origin flap workload on a loaded 3x3 mesh ==";
  Printf.printf "%10s %9s %13s %10s %12s %12s %10s %12s %12s %12s\n" "background" "flappers"
    "prefixes/rtr" "wall(s)" "sim events" "events/s" "messages" "minor words" "promoted"
    "peakRSS(MB)";
  let points =
    List.map
      (fun spec ->
        let p = run_point opts spec in
        Printf.printf "%10d %9d %13d %10.2f %12d %12.0f %10d %12d %12d %12.1f\n%!"
          p.background p.flappers p.prefixes_per_router p.wall_seconds p.sim_events
          p.events_per_sec p.message_count p.alloc.Host.minor_words
          p.alloc.Host.promoted_words
          (float_of_int p.peak_rss_kb /. 1024.);
        p)
      points_spec
  in
  Context.write_csv ctx ~name:"traffic"
    ~header:
      [
        "background";
        "flappers";
        "prefixes_per_router";
        "wall_seconds";
        "sim_events";
        "events_per_sec";
        "messages";
        "minor_words";
        "promoted_words";
        "peak_rss_kb";
      ]
    ~rows:
      (List.map
         (fun p ->
           [
             string_of_int p.background;
             string_of_int p.flappers;
             string_of_int p.prefixes_per_router;
             Printf.sprintf "%.4f" p.wall_seconds;
             string_of_int p.sim_events;
             Printf.sprintf "%.1f" p.events_per_sec;
             string_of_int p.message_count;
             string_of_int p.alloc.Host.minor_words;
             string_of_int p.alloc.Host.promoted_words;
             string_of_int p.peak_rss_kb;
           ])
         points);
  points

let write_json ctx ~file points =
  let opts = ctx.Context.opts in
  Json.write_file file (to_json ~quick:opts.Context.quick ~seed:opts.Context.seed points);
  Printf.printf "[traffic baseline written to %s]\n" file
