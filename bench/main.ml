(* Benchmark / reproduction harness.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper (plus a claims summary); individual experiments, ablations and
   Bechamel micro-benchmarks are selectable from the command line. *)

let experiments =
  [
    ("table1", "Table 1: default damping parameters", Experiments.table1);
    ("fig3", "Figure 3: penalty curve under a few flaps", Experiments.fig3);
    ("fig4", "Figure 4: four-state damping process", Experiments.fig4);
    ("fig7", "Figure 7: penalty 7 hops from the origin", Experiments.fig7);
    ("fig8", "Figure 8: convergence time vs pulses", Experiments.fig8);
    ("fig9", "Figure 9: message count vs pulses", Experiments.fig9);
    ("fig10", "Figure 10: update series and damped links (n=1,3,5)", Experiments.fig10);
    ("fig13", "Figure 13: convergence time with RCN", Experiments.fig13);
    ("fig14", "Figure 14: message count with RCN", Experiments.fig14);
    ("fig15", "Figure 15: impact of the no-valley policy", Experiments.fig15);
    ("critical", "Section 4.4 critical point (RT_h vs RT_net)", Experiments.critical);
    ("summary", "paper claims vs reproduction verdicts", Experiments.summary);
  ]

let ablations =
  [
    ("ablation-mrai", "MRAI sensitivity", Experiments.ablation_mrai);
    ("ablation-params", "Cisco vs Juniper presets", Experiments.ablation_params);
    ("ablation-partial", "partial damping deployment", Experiments.ablation_partial);
    ("ablation-selective", "plain vs selective vs RCN", Experiments.ablation_selective);
    ("ablation-diverse", "diverse damping parameters", Experiments.ablation_diverse);
    ("ablation-interval", "flap-interval sensitivity", Experiments.ablation_interval);
    ("ablation-size", "topology-size sensitivity", Experiments.ablation_size);
    ("ablation-mechanism", "origin-update vs link-state flaps", Experiments.ablation_mechanism);
    ( "ablation-reuse-tick",
      "exact vs tick-wheel reuse scheduling",
      Experiments.ablation_reuse_tick );
  ]

let all = experiments @ ablations

let lookup ~tick ~scale_json ~scale_nodes ~scale_partitions ~traffic_json
    ~serving_json name =
  match List.find_opt (fun (n, _, _) -> n = name) all with
  | Some (_, _, f) -> Ok f
  | None -> (
      match name with
      | "paper" -> Ok (fun ctx -> List.iter (fun (_, _, f) -> f ctx) experiments)
      | "ablations" -> Ok (fun ctx -> List.iter (fun (_, _, f) -> f ctx) ablations)
      | "all" -> Ok (fun ctx -> List.iter (fun (_, _, f) -> f ctx) all)
      | "micro" -> Ok (fun _ -> Micro.run ())
      | "perf" -> Ok (fun ctx -> Perf.print (Perf.measure ~tick ctx))
      | "scale" ->
          Ok
            (fun ctx ->
              let points =
                Scale.run ?sizes:scale_nodes ~partitions:scale_partitions ctx
              in
              match scale_json with
              | Some file ->
                  Scale.write_json ctx ~file ~partitions:scale_partitions points
              | None -> ())
      | "traffic" ->
          Ok
            (fun ctx ->
              let points = Traffic.run ctx in
              match traffic_json with
              | Some file -> Traffic.write_json ctx ~file points
              | None -> ())
      | "serving" ->
          Ok
            (fun ctx ->
              let points = Serving.run ctx in
              match serving_json with
              | Some file -> Serving.write_json ctx ~file points
              | None -> ())
      | _ -> Error (Printf.sprintf "unknown experiment %S" name))

open Cmdliner

let names_arg =
  (* Generated from the experiment tables so the help text cannot drift. *)
  let doc =
    Printf.sprintf
      "Experiments to run: %s, micro, perf, scale (Internet-scale BA-graph \
       benchmark), traffic (multi-origin heavy-traffic workload benchmark), \
       serving (sharded-fleet queries/sec benchmark), paper (all tables and \
       figures), ablations, all. Default: paper."
      (String.concat ", " (List.map (fun (name, _, _) -> name) all))
  in
  Arg.(value & pos_all string [ "paper" ] & info [] ~docv:"EXPERIMENT" ~doc)

let quick_arg =
  let doc = "Run at reduced scale (6x6 mesh, smaller Internet graphs) for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let seed_arg =
  let doc = "Master random seed (topology, MRAI jitter, isp choice)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let csv_arg =
  let doc = "Also write each experiment's data as CSV files into $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let plots_arg =
  let doc = "Also write gnuplot scripts and data files into $(docv)." in
  Arg.(value & opt (some string) None & info [ "plots" ] ~docv:"DIR" ~doc)

let micro_arg =
  let doc = "Additionally run the Bechamel micro-benchmarks." in
  Arg.(value & flag & info [ "micro" ] ~doc)

let json_arg =
  let doc =
    "Write a machine-readable perf baseline to $(docv): the fig8 \
     exact-vs-tick-wheel comparison plus Bechamel micro-benchmark medians \
     (schema documented in EXPERIMENTS.md). Runs in addition to the \
     selected experiments."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let tick_arg =
  let doc = "Tick period (seconds) of the wheel side of the perf comparison." in
  Arg.(value & opt float 15. & info [ "tick" ] ~docv:"SECONDS" ~doc)

let scale_json_arg =
  let doc =
    "Write the $(b,scale) experiment's machine-readable results (rfd-bench/1 \
     schema: per-size wall time, simulator throughput, intern-table sizes and \
     peak RSS) to $(docv). Only meaningful together with the $(b,scale) \
     experiment."
  in
  Arg.(value & opt (some string) None & info [ "scale-json" ] ~docv:"FILE" ~doc)

let scale_nodes_arg =
  let doc =
    "Graph sizes for the $(b,scale) experiment (comma-separated node counts, \
     run in ascending order so per-size peak RSS stays attributable), e.g. \
     $(b,1000,10000,50000). Default: 1000 with $(b,--quick), 1000,10000 \
     otherwise."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' int)) None
    & info [ "scale-nodes" ] ~docv:"SIZES" ~doc)

let traffic_json_arg =
  let doc =
    "Write the $(b,traffic) experiment's machine-readable results (rfd-bench/1 \
     schema: per-point prefixes/router, simulator throughput and peak RSS) to \
     $(docv). Only meaningful together with the $(b,traffic) experiment."
  in
  Arg.(value & opt (some string) None & info [ "traffic-json" ] ~docv:"FILE" ~doc)

let serving_json_arg =
  let doc =
    "Write the $(b,serving) experiment's machine-readable results \
     (rfd-bench/1 schema: queries/sec per shard count and cache-hit ratio) to \
     $(docv). Only meaningful together with the $(b,serving) experiment."
  in
  Arg.(value & opt (some string) None & info [ "serving-json" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains executing simulation runs in parallel (results are \
     bit-identical for any value). Default: all cores minus one."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Per-run wall-clock deadline for sweeps (seconds): a wedged run is timed \
     out instead of hanging the harness."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc =
    "Retry crashed or timed-out sweep runs up to $(docv) extra times \
     (deterministic backoff; retried results are bit-identical)."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let write_json ctx ~file ~tick ~quick ~seed ~jobs =
  let perf = Perf.measure ~tick ctx in
  Perf.print perf;
  let micro = Micro.estimates () in
  let doc =
    Rfd.Json.Obj
      [
        ("schema", Rfd.Json.String "rfd-bench/1");
        ("scale", Rfd.Json.String (if quick then "quick" else "paper"));
        ("seed", Rfd.Json.Int seed);
        ("jobs", Rfd.Json.Int jobs);
        ("fig8_reuse", Perf.to_json perf);
        ( "micro_ns",
          Rfd.Json.Obj (List.map (fun (name, ns) -> (name, Rfd.Json.Float ns)) micro) );
      ]
  in
  Rfd.Json.write_file file doc;
  Printf.printf "[json baseline written to %s]\n" file

let scale_partitions_arg =
  let doc =
    "Run the $(b,scale) experiment with $(docv) topology partitions (one \
     worker domain each). Simulation results are bit-identical for every \
     partition count; only wall time changes."
  in
  Arg.(value & opt int 1 & info [ "scale-partitions" ] ~docv:"N" ~doc)

let run names quick seed jobs csv_dir plot_dir micro json tick deadline retries scale_json
    scale_nodes scale_partitions traffic_json serving_json =
  let jobs = match jobs with Some j -> max 1 j | None -> Rfd.Supervisor.default_jobs () in
  let opts = { Context.quick; seed; jobs; csv_dir; plot_dir; deadline; retries } in
  let ctx = Context.create opts in
  Printf.printf "Route Flap Damping reproduction harness (scale: %s, seed %d, jobs %d)\n"
    (if quick then "quick" else "paper")
    seed jobs;
  let outcome =
    List.fold_left
      (fun acc name ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match
              lookup ~tick ~scale_json ~scale_nodes ~scale_partitions
                ~traffic_json ~serving_json name
            with
            | Ok f ->
                f ctx;
                Ok ()
            | Error e -> Error e))
      (Ok ()) names
  in
  match outcome with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok () ->
      if micro then Micro.run ();
      (match json with
      | Some file -> write_json ctx ~file ~tick ~quick ~seed ~jobs
      | None -> ());
      print_newline ()

let cmd =
  let doc = "reproduce the tables and figures of 'Timer Interaction in Route Flap Damping'" in
  let info = Cmd.info "rfd-bench" ~doc in
  Cmd.v info
    Term.(
      const run $ names_arg $ quick_arg $ seed_arg $ jobs_arg $ csv_arg $ plots_arg
      $ micro_arg $ json_arg $ tick_arg $ deadline_arg $ retries_arg $ scale_json_arg
      $ scale_nodes_arg $ scale_partitions_arg $ traffic_json_arg
      $ serving_json_arg)

let () = exit (Cmd.eval cmd)
