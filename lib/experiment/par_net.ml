(* A partitioned BGP network: one Network (and one simulator) per topology
   partition, advanced in conservative lockstep epochs with the minimum
   link delay as the lookahead, exchanging cross-partition messages through
   deterministic per-(src, dst) FIFO mailboxes at epoch barriers. Every run
   goes through here; a single-network run is the one-partition case.

   Determinism contract (any partition count, 1 included, bit-identical):
   - Transport randomness is per directed link (see Network), so every
     draw depends only on that link's own send sequence.
   - Every partition replays the full per-node RNG split sequence, so a
     router's jitter stream is a function of (seed, node) alone.
   - Every simulator pops same-instant events in (argument, channel)
     order, and every post argument names its event: a delivery its
     directed link, a flush or reuse timer its (link, prefix), a wheel
     bucket its (bucket, router), an op its row in the op table. No
     argument holds anything the layout decides, such as a delivery's
     in-flight row (see Network). So each partition runs its events in
     the order the one-partition run gives them, whatever the link jitter.
   - Every scheduled operation is a row of one op table, posted by its
     index: of two ops at one instant, the one scheduled first pops first.
     Workload operations (originate, withdraw) are routed to the owning
     partition. Administrative ones (link fail/restore, crash/restart) are
     broadcast: each partition executes them against its own replica of
     link/router state and signals only its own routers; the union equals
     the single-domain behaviour, and the per-partition surplus executions
     are subtracted from the reported event count.
   - With several partitions, observation order is canonicalised by
     {!Recorder} at every barrier. With one there is nothing to merge: the
     sole network's hooks are the bus, and observers see events in
     execution order. The two differ only among different routers' events
     at one timestamp — common, since tick-mode reuse wheels fire on a
     shared unjittered grid and a crash signals every neighbour at once —
     so {!Collector} keeps nothing that depends on that order, and the
     transcript sorts each instant by owner itself. *)

module Sim = Rfd_engine.Sim
module Partition = Rfd_engine.Partition
module Par_sim = Rfd_engine.Par_sim
module Graph = Rfd_topology.Graph
open Rfd_bgp

type op =
  | Originate of int * Prefix.t
  | Withdraw of int * Prefix.t
  | Fail_link of int * int
  | Restore_link of int * int
  | Crash of int
  | Restart of int

(* Append-only: an op's index is its post argument. *)
type op_table = { mutable ops : op array; mutable length : int }

let apply net = function
  | Originate (node, prefix) -> Network.originate net ~node prefix
  | Withdraw (node, prefix) -> Network.withdraw net ~node prefix
  | Fail_link (u, v) -> Network.fail_link net u v
  | Restore_link (u, v) -> Network.restore_link net u v
  | Crash node -> Network.crash_router net node
  | Restart node -> Network.restart_router net node

type t = {
  config : Config.t;
  graph : Graph.t;
  parts : int;
  part_of : int array;
  nets : Network.t array;
  sims : Sim.t array;
  recorders : Recorder.t array;
  mailbox : Network.remote Partition.t;
  epochs : Par_sim.t;
  bus : Hooks.t; (* observation bus: attach observers here *)
  table : op_table;
  routed_on : Sim.channel array; (* by partition: ops its owner alone runs *)
  broadcast_on : Sim.channel array; (* by partition: ops every partition runs *)
  mutable barriers : int;
  mutable drives : int;
}

let create ?policy ~config ~partitions graph =
  if partitions < 1 then invalid_arg "Par_net.create: partitions must be >= 1";
  let n = Graph.num_nodes graph in
  if n = 0 then invalid_arg "Par_net.create: empty topology";
  let parts = min partitions n in
  let part_of = Graph.partition graph ~parts in
  let mailbox = Partition.create ~parts in
  let sims = Array.init parts (fun _ -> Sim.create ()) in
  let nets =
    Array.init parts (fun p ->
        let owned = Array.init n (fun node -> part_of.(node) = p) in
        let emit (r : Network.remote) =
          Partition.post mailbox ~src:p ~dst:part_of.(r.Network.remote_dst) r
        in
        Network.create ?policy ~ownership:(owned, emit) ~config sims.(p) graph)
  in
  let recorders, bus =
    if parts = 1 then ([||], Network.hooks nets.(0))
    else
      ( Array.map
          (fun net ->
            let recorder = Recorder.create ~nodes:n in
            Recorder.attach recorder (Network.hooks net);
            recorder)
          nets,
        Hooks.create () )
  in
  let table = { ops = [||]; length = 0 } in
  let on_ops p = Sim.channel sims.(p) (fun _ i -> apply nets.(p) table.ops.(i)) in
  let routed_on = Array.init parts on_ops in
  let broadcast_on = Array.init parts on_ops in
  {
    config;
    graph;
    parts;
    part_of;
    nets;
    sims;
    recorders;
    mailbox;
    epochs = Par_sim.create sims;
    bus;
    table;
    routed_on;
    broadcast_on;
    barriers = 0;
    drives = 0;
  }

let shutdown t = Par_sim.shutdown t.epochs
let bus t = t.bus
let partitions t = t.parts
let graph t = t.graph
let part_of t node = t.part_of.(node)
let cut_edges t = Graph.cut_edges t.graph t.part_of
let iter_nets t f = Array.iter f t.nets

(* Every partition executed each broadcast op once, but the single-domain
   run executes it exactly once: the surplus is subtracted from the
   reported counts. The per-partition broadcast counts are equal at any
   barrier (broadcasts land in every partition at the same timestamp), so
   partition 0's is the canonical count and the others' are the surplus. *)
let broadcast_surplus t =
  let surplus = ref 0 in
  for p = 1 to t.parts - 1 do
    surplus := !surplus + Sim.channel_events t.sims.(p) t.broadcast_on.(p)
  done;
  !surplus

let sim_events t =
  let total = Array.fold_left (fun acc sim -> acc + Sim.events_executed sim) 0 t.sims in
  total - broadcast_surplus t

let per_partition_events t = Array.map Sim.events_executed t.sims

let event_counts t =
  let sum f = Array.fold_left (fun acc net -> acc + f (Network.event_counts net)) 0 t.nets in
  {
    Network.deliveries = sum (fun c -> c.Network.deliveries);
    flushes = sum (fun c -> c.Network.flushes);
    reuses = sum (fun c -> c.Network.reuses);
    wheels = sum (fun c -> c.Network.wheels);
    ops = sum (fun c -> c.Network.ops) - broadcast_surplus t;
  }
let peak_heap t = Array.fold_left (fun acc sim -> acc + Sim.max_heap_size sim) 0 t.sims
let epochs t = t.barriers - t.drives

let now t = Array.fold_left (fun acc sim -> Float.max acc (Sim.now sim)) 0. t.sims
let advance_all t ~time = Array.iter (fun sim -> Sim.advance_clock sim ~time) t.sims

let flush t =
  Recorder.drain_replay (Array.to_list t.recorders) t.bus;
  ignore
    (Partition.drain t.mailbox ~deliver:(fun ~dst msg ->
         Network.deliver_remote t.nets.(dst) msg))

let exchange t () =
  t.barriers <- t.barriers + 1;
  flush t

let drive ?until ?max_events t =
  t.drives <- t.drives + 1;
  Par_sim.lockstep ~lookahead:t.config.Config.link_delay ?until ?max_events
    ~executed:(fun () -> sim_events t)
    ~exchange:(exchange t) t.epochs

(* ------------------------------------------------------------------ *)
(* Driving: routed (single-partition) and broadcast operations          *)

let check_node t node =
  if node < 0 || node >= Array.length t.part_of then
    invalid_arg (Printf.sprintf "Par_net: node %d out of range" node)

let owner_net t node =
  check_node t node;
  t.nets.(t.part_of.(node))

let originate t ~node prefix = Network.originate (owner_net t node) ~node prefix
let withdraw t ~node prefix = Network.withdraw (owner_net t node) ~node prefix

(* A partition's clock may lag [now t], and its simulator would accept a
   time the single-domain run refuses; a broadcast could then land in
   some partitions and not others. So every op is checked — its time
   against the global clock, its target against the graph — before it
   enters the table or any partition's queue. *)
let check_at t at =
  if Float.is_nan at then invalid_arg "Par_net: NaN schedule time";
  let now = now t in
  if at < now then invalid_arg (Printf.sprintf "Par_net: schedule time %g before now (%g)" at now)

let check_target t = function
  | Originate (node, _) | Withdraw (node, _) | Crash node | Restart node -> check_node t node
  | Fail_link (u, v) | Restore_link (u, v) ->
      if Graph.edge_id t.graph u v = None then
        invalid_arg (Printf.sprintf "Par_net: (%d,%d) is not a link" u v)

(* Append [op] to the table and post its index: on the owner's routed
   channel, or on every partition's broadcast channel in partition order. *)
let schedule t ~at op =
  check_at t at;
  check_target t op;
  let table = t.table in
  if table.length = Array.length table.ops then
    table.ops <- Array.append table.ops (Array.make (max 16 table.length) op);
  let i = table.length in
  table.ops.(i) <- op;
  table.length <- i + 1;
  let post p ch = Sim.post t.sims.(p) ch.(p) ~time:at i in
  match op with
  | Originate (node, _) | Withdraw (node, _) -> post t.part_of.(node) t.routed_on
  | Fail_link _ | Restore_link _ | Crash _ | Restart _ ->
      for p = 0 to t.parts - 1 do
        post p t.broadcast_on
      done

let schedule_originate t ~at ~node prefix = schedule t ~at (Originate (node, prefix))
let schedule_withdraw t ~at ~node prefix = schedule t ~at (Withdraw (node, prefix))
let schedule_fail_link t ~at u v = schedule t ~at (Fail_link (u, v))
let schedule_restore_link t ~at u v = schedule t ~at (Restore_link (u, v))
let schedule_crash t ~at node = schedule t ~at (Crash node)
let schedule_restart t ~at node = schedule t ~at (Restart node)

let set_degradation t ~src ~dst ~loss ~duplication =
  Array.iter (fun net -> Network.set_degradation net ~src ~dst ~loss ~duplication) t.nets

(* ------------------------------------------------------------------ *)
(* Whole-network checks and introspection                               *)

let activity t =
  let base =
    Array.fold_left (fun acc net -> Oracle.add acc (Network.activity net)) Oracle.zero t.nets
  in
  { base with Oracle.in_flight = base.Oracle.in_flight + Partition.pending t.mailbox }

let rib_fixpoint t prefix = Array.for_all (fun net -> Network.rib_fixpoint net prefix) t.nets
let status t prefix = Oracle.classify ~rib_fixpoint:(rib_fixpoint t prefix) (activity t)
let converged t prefix = Oracle.is_stable (status t prefix)
let quiescent t prefix = Oracle.is_quiet (status t prefix)
let router t node = Network.router (owner_net t node) node

let reachable_count t prefix =
  Array.fold_left (fun acc net -> acc + Network.reachable_count net prefix) 0 t.nets

let reuse_timer_events t =
  Array.fold_left (fun acc net -> acc + Network.reuse_timer_events net) 0 t.nets

let peak_reuse_timers t =
  Array.fold_left (fun acc net -> acc + Network.peak_reuse_timers net) 0 t.nets

let paths_interned t =
  Array.fold_left (fun acc net -> acc + As_path.table_size (Network.route_table net)) 0 t.nets
