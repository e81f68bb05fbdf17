(* The one way the protocol tests build and drive a network by hand: a
   one-partition Par_net, as every run builds it. *)

open Rfd_bgp
module Par_net = Rfd_experiment.Par_net

let create ?policy ?(config = Config.default) graph =
  Par_net.create ?policy ~config ~partitions:1 graph

(* Drain every queue, or run each event at or before [until] and then
   advance every clock to [until], as a bare simulator's [Sim.run ~until]
   does. *)
let run ?until net =
  ignore (Par_net.drive ?until net);
  Option.iter (fun time -> Par_net.advance_all net ~time) until

(* The sole partition's shard, for its replica state (link and router
   status, degradation, in-flight count) and its simulator. *)
let shard net =
  let shards = ref [] in
  Par_net.iter_nets net (fun shard -> shards := shard :: !shards);
  match !shards with
  | [ shard ] -> shard
  | _ -> invalid_arg "Fixture.shard: one partition only"

let sim net = Network.sim (shard net)

(* Administrative operations applied now, to every replica. *)
let fail_link net u v = Par_net.iter_nets net (fun shard -> Network.fail_link shard u v)
let restore_link net u v = Par_net.iter_nets net (fun shard -> Network.restore_link shard u v)
let crash net node = Par_net.iter_nets net (fun shard -> Network.crash_router shard node)
let restart net node = Par_net.iter_nets net (fun shard -> Network.restart_router shard node)
