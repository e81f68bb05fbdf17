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

(* Every update a router sends is its Loc-RIB's export at that instant,
   under the shortest-path policy (announce-all):
   - an announcement's path is the sender prepended to its current best
     path, and that best path does not contain the receiver;
   - a withdrawal means the sender has no best route, or its best path
     contains the receiver.
   [tap_exports ~router hooks] checks each send against that rule, then
   hands it to the [on_send] callback already installed; [router node]
   must give the sender's router. It returns a reader of the first five
   sends that broke the rule, described, oldest first. *)
let tap_exports ~router (hooks : Hooks.t) =
  let broken = ref [] in
  let previous = hooks.Hooks.on_send in
  hooks.Hooks.on_send <-
    (fun ~time ~src ~dst update ->
      let best = Option.map Route.path (Router.best (router src) (Update.prefix update)) in
      let conforms =
        match (update, best) with
        | Update.Announce { route; _ }, Some path ->
            (not (As_path.contains path dst))
            && As_path.equal (Route.path route) (As_path.prepend src path)
        | Update.Announce _, None -> false
        | Update.Withdraw _, None -> true
        | Update.Withdraw _, Some path -> As_path.contains path dst
      in
      if (not conforms) && List.length !broken < 5 then
        broken :=
          Format.asprintf "t=%.17g %d->%d %a, best %s" time src dst Update.pp update
            (match best with
            | None -> "none"
            | Some path -> Format.asprintf "%a" As_path.pp path)
          :: !broken;
      previous ~time ~src ~dst update);
  fun () -> List.rev !broken
