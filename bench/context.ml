(* Shared state for the benchmark harness: experiment options plus lazily
   computed simulation sweeps, so figures that share data (8/9, 13/14) run
   each sweep once per invocation. *)

module Scenario = Rfd.Scenario
module Sweep = Rfd.Sweep
module Runner = Rfd.Runner
module Config = Rfd.Config
module Params = Rfd.Params

type opts = {
  quick : bool;  (** reduced scale for a fast smoke run *)
  seed : int;
  jobs : int;  (** worker domains for sweep execution *)
  csv_dir : string option;  (** also dump each figure's data as CSV *)
  plot_dir : string option;  (** also emit gnuplot scripts + data *)
  deadline : float option;  (** per-run wall-clock watchdog for sweeps *)
  retries : int;  (** supervised retries for crashed / timed-out runs *)
}

type t = {
  opts : opts;
  mesh : Scenario.topology;
  internet : Scenario.topology;
  internet_large : Scenario.topology;
  pulses : int list;
  nodamp_mesh : Sweep.t Lazy.t;
  damp_mesh : Sweep.t Lazy.t;
  damp_internet : Sweep.t Lazy.t;
  rcn_mesh : Sweep.t Lazy.t;
  single_pulse_probe : Runner.result Lazy.t;
  fig10_runs : (int * Runner.result) list Lazy.t;
}

let base_config opts = { Config.default with Config.seed = opts.seed }

let damping_config ?(mode = Config.Plain) ?(params = Params.cisco) opts =
  Config.with_damping ~mode params (base_config opts)

let scenario ?policy ?probe ?pulses ~name ~config topology =
  Scenario.make ~name ?policy ?probe ?pulses ~config topology

let create opts =
  let mesh =
    if opts.quick then Scenario.Mesh { rows = 6; cols = 6 } else Scenario.paper_mesh
  in
  let internet =
    if opts.quick then Scenario.Internet { nodes = 36; m = 2 } else Scenario.paper_internet
  in
  let internet_large =
    if opts.quick then Scenario.Internet { nodes = 72; m = 2 }
    else Scenario.paper_internet_208
  in
  let pulses = List.init 10 (fun i -> i + 1) in
  let supervision =
    { Sweep.default_supervision with Sweep.deadline = opts.deadline; retries = opts.retries }
  in
  let sweep ~label sc = lazy (Sweep.run ~label ~pulses ~jobs:opts.jobs ~supervision sc) in
  {
    opts;
    mesh;
    internet;
    internet_large;
    pulses;
    nodamp_mesh =
      sweep ~label:"no damping (mesh)"
        (scenario ~name:"nodamp-mesh" ~config:(base_config opts) mesh);
    damp_mesh =
      sweep ~label:"full damping (mesh)"
        (scenario ~name:"damp-mesh" ~config:(damping_config opts) mesh);
    damp_internet =
      sweep ~label:"full damping (internet)"
        (scenario ~name:"damp-internet" ~config:(damping_config opts) internet);
    rcn_mesh =
      sweep ~label:"damping + RCN (mesh)"
        (scenario ~name:"rcn-mesh" ~config:(damping_config ~mode:Config.Rcn opts) mesh);
    single_pulse_probe =
      lazy
        (Runner.run
           (scenario ~name:"mesh-probe" ~config:(damping_config opts)
              ~probe:(Scenario.At_distance 7) ~pulses:1 mesh));
    fig10_runs =
      lazy
        (let pulses = [ 1; 3; 5 ] in
         List.combine pulses
           (Sweep.execute ~jobs:opts.jobs
              (Sweep.plan ~pulses
                 (scenario ~name:"fig10" ~config:(damping_config opts) mesh))));
  }

let write_plot ctx plot =
  match ctx.opts.plot_dir with
  | None -> ()
  | Some dir ->
      Rfd.Plot.write plot ~dir;
      Printf.printf "  [gnuplot script written to %s/%s.gp]\n" dir plot.Rfd.Plot.name

let write_csv ctx ~name ~header ~rows =
  match ctx.opts.csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (Rfd.Report.csv ~header rows);
      close_out oc;
      Printf.printf "  [csv written to %s]\n" path
