let version = "1.0.0"

module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Supervisor = Rfd_engine.Supervisor
module Clock = Rfd_engine.Clock
module Timeseries = Rfd_engine.Timeseries
module Column = Rfd_engine.Column
module Stats = Rfd_engine.Stats
module Partition = Rfd_engine.Partition
module Par_sim = Rfd_engine.Par_sim
module Procfs = Rfd_engine.Procfs
module Graph = Rfd_topology.Graph
module Builders = Rfd_topology.Builders
module Random_graphs = Rfd_topology.Random_graphs
module Relations = Rfd_topology.Relations
module Edge_list = Rfd_topology.Edge_list
module Topo_metrics = Rfd_topology.Metrics
module Prefix = Rfd_bgp.Prefix
module As_path = Rfd_bgp.As_path
module Route = Rfd_bgp.Route
module Root_cause = Rfd_bgp.Root_cause
module Update = Rfd_bgp.Update
module Policy = Rfd_bgp.Policy
module Config = Rfd_bgp.Config
module Router = Rfd_bgp.Router
module Network = Rfd_bgp.Network
module Hooks = Rfd_bgp.Hooks
module Oracle = Rfd_bgp.Oracle
module Fault_plan = Rfd_faults.Fault_plan
module Injector = Rfd_experiment.Injector
module Params = Rfd_damping.Params
module Damper = Rfd_damping.Damper
module History = Rfd_damping.History
module Reuse_index = Rfd_damping.Reuse_index
module Scenario = Rfd_experiment.Scenario
module Pulse = Rfd_experiment.Pulse
module Update_trace = Rfd_experiment.Trace
module Runner = Rfd_experiment.Runner
module Sweep = Rfd_experiment.Sweep
module Journal = Rfd_experiment.Journal
module Collector = Rfd_experiment.Collector
module Intended = Rfd_experiment.Intended
module Phases = Rfd_experiment.Phases
module Report = Rfd_experiment.Report
module Json = Rfd_experiment.Json
module Plot = Rfd_experiment.Plot
module Recorder = Rfd_experiment.Recorder
module Par_net = Rfd_experiment.Par_net
module Svc_protocol = Rfd_service.Protocol
module Svc_store = Rfd_service.Store
module Svc_server = Rfd_service.Server
module Svc_client = Rfd_service.Client
module Svc_shard = Rfd_service.Shard
module Svc_fleet = Rfd_service.Fleet
module Svc_chaos = Rfd_service.Chaos

let cisco_damping_config = Config.with_damping Params.cisco Config.default
let juniper_damping_config = Config.with_damping Params.juniper Config.default
let rcn_damping_config = Config.with_damping ~mode:Config.Rcn Params.cisco Config.default

let simulate_flaps ?pulses scenario =
  let scenario =
    match pulses with Some n -> Scenario.with_pulses scenario n | None -> scenario
  in
  Runner.run scenario
