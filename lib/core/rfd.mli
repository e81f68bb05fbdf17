(** Route Flap Damping timer-interaction study — public façade.

    This library reproduces "Timer Interaction in Route Flap Damping"
    (Zhang, Pei, Massey, Zhang; ICDCS 2005) end to end: a discrete-event
    simulator, a path-vector routing protocol with MRAI and policies,
    RFC 2439 damping with vendor presets, RCN-enhanced damping, and an
    experiment harness.

    Most users only need this module:

    {[
      let result =
        Rfd.simulate_flaps ~pulses:3
          (Rfd.Scenario.make ~config:Rfd.cisco_damping_config
             Rfd.Scenario.paper_mesh)
      in
      Format.printf "%a@." Rfd.Runner.pp_result result
    ]}

    The submodules re-export the underlying libraries for finer control. *)

val version : string

(** {1 Substrates} *)

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

(** {1 Protocol} *)

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

(** {1 Fault injection} *)

module Fault_plan = Rfd_faults.Fault_plan
module Injector = Rfd_experiment.Injector

(** {1 Damping} *)

module Params = Rfd_damping.Params
module Damper = Rfd_damping.Damper
module History = Rfd_damping.History
module Reuse_index = Rfd_damping.Reuse_index

(** {1 Experiments} *)

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

(** {1 Serving} — the [rfd-simd] daemon's building blocks *)

module Svc_protocol = Rfd_service.Protocol
module Svc_store = Rfd_service.Store
module Svc_server = Rfd_service.Server
module Svc_client = Rfd_service.Client
module Svc_shard = Rfd_service.Shard
module Svc_fleet = Rfd_service.Fleet
module Svc_chaos = Rfd_service.Chaos

(** {1 Convenience} *)

val cisco_damping_config : Config.t
(** {!Config.default} with Cisco-default damping at every router. *)

val juniper_damping_config : Config.t

val rcn_damping_config : Config.t
(** Cisco damping filtered through Root Cause Notification. *)

val simulate_flaps : ?pulses:int -> Scenario.t -> Runner.result
(** Run a scenario (overriding its pulse count when [pulses] is given). *)
