module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Graph = Rfd_topology.Graph

type directed_link = {
  mutable last_delivery : float; (* FIFO floor for this direction *)
  mutable loss : float; (* fault-injected per-message loss probability *)
  mutable duplication : float; (* fault-injected duplication probability *)
}

type link_state = {
  mutable up : bool; (* administrative: not failed by fail_link *)
  mutable epoch : int; (* bumped on failure to void in-flight messages *)
}

type remote = {
  remote_eid : int;
  remote_src : int;
  remote_dst : int;
  remote_at : float; (* absolute delivery time, FIFO floor already applied *)
  remote_epoch : int; (* sender-side link epoch at send time *)
  remote_update : Update.t;
}

(* Transport randomness is per directed link: each link draws delay jitter
   and loss/duplication from its own seed-derived streams, so the draws a
   link sees depend only on that link's own send sequence, never on how
   sends interleave across links. That is what makes a partitioned run
   independent of the partition count: each directed link is owned
   (sampled) by exactly one partition, in the same per-link order as any
   other partitioning. *)
type t = {
  sim : Sim.t;
  graph : Graph.t;
  config : Config.t;
  hooks : Hooks.t;
  table : Route.table; (* shared intern table for every router's routes *)
  routers : Router.t option array; (* None = owned by another partition *)
  owned : bool array;
  emit : (remote -> unit) option; (* cross-partition outbox; None = plain *)
  routers_up : bool array; (* false while crashed *)
  damping_deployed : bool array;
  links : link_state array; (* indexed by Graph edge id *)
  directed : directed_link array; (* 2*eid + (0 if src < dst else 1) *)
  mutable in_flight : int;
}

(* Link state is held in dense arrays indexed by the graph's stable edge
   ids: [links.(eid)] for the undirected administrative state, and
   [directed.(2*eid + dir)] with [dir = 0] for the min->max direction. *)
let edge_id_exn t u v =
  match Graph.edge_id t.graph u v with
  | Some eid -> eid
  | None -> invalid_arg (Printf.sprintf "Network: (%d,%d) is not a link" u v)

let link_state_exn t u v = t.links.(edge_id_exn t u v)
let directed_slot eid ~src ~dst = (2 * eid) + if src < dst then 0 else 1
let directed_exn t ~src ~dst = t.directed.(directed_slot (edge_id_exn t src dst) ~src ~dst)

(* A link carries traffic only when it is administratively up and neither
   endpoint router is crashed. All up/down session transitions below are in
   terms of this predicate, so link faults and router crashes compose. *)
let operational t ls u v = ls.up && t.routers_up.(u) && t.routers_up.(v)

(* Session transitions touch only locally-owned routers; under partitioning
   every administrative event is replicated to all partitions, so the union
   of the local effects equals the single-domain behaviour. *)
let peer_down_at t node ~peer =
  match t.routers.(node) with Some r -> Router.peer_down r ~peer | None -> ()

let peer_up_at t node ~peer =
  match t.routers.(node) with Some r -> Router.peer_up r ~peer | None -> ()

let down_transition t ls u v =
  ls.epoch <- ls.epoch + 1;
  peer_down_at t u ~peer:v;
  peer_down_at t v ~peer:u

let up_transition t u v =
  peer_up_at t u ~peer:v;
  peer_up_at t v ~peer:u

let deployment_flags config rng n =
  let flags = Array.make n false in
  (match config.Config.damping with
  | None -> ()
  | Some _ -> (
      match config.Config.deployment with
      | Config.Everywhere -> Array.fill flags 0 n true
      | Config.Nowhere -> ()
      | Config.Fraction f ->
          for i = 0 to n - 1 do
            flags.(i) <- Rng.float rng 1.0 < f
          done
      | Config.Only nodes ->
          List.iter
            (fun node ->
              if node < 0 || node >= n then
                invalid_arg (Printf.sprintf "Network: deployment node %d out of range" node);
              flags.(node) <- true)
            nodes));
  flags

(* Seed-derived per-directed-slot stream, decorrelated by slot with the
   SplitMix64 increment. Independent of the master split chain, so adding
   streams never perturbs router jitter. *)
let stream_rng config ~salt slot =
  Rng.create ((config.Config.seed lxor salt) + ((slot + 1) * 0x9E37_79B9))

(* The transport for direction src -> dst: sample a delay, keep per-direction
   FIFO order, and drop the message if the link failed (or an endpoint
   crashed) either before sending or while in flight (epoch check).

   Fault injection happens here: a message may be duplicated (a second copy
   follows the first) and each copy is independently subject to loss. Every
   surviving copy goes through the same FIFO floor, so deliveries on a
   directed link never reorder even under duplication. The fault RNG is only
   consumed when the corresponding probability is non-zero, so fault-free
   runs are bit-identical to runs on a build without fault injection.

   When the destination belongs to another partition the fully-timestamped
   message goes to the outbox instead of the local event queue; its delivery
   time is at least link_delay beyond now, which is exactly the lookahead
   the epoch engine runs with, so it can wait for the barrier. *)
let make_sender t src dst =
  let eid = edge_id_exn t src dst in
  let ls = t.links.(eid) in
  let slot = directed_slot eid ~src ~dst in
  let dl = t.directed.(slot) in
  let delay_rng = stream_rng t.config ~salt:0x2d35_8dcc slot in
  (* Fault draws happen only on degraded links, so most links never need
     their fault stream; it is a pure function of (seed, slot), so creating
     it on first use draws exactly what an eager stream would. *)
  let fault_rng = lazy (stream_rng t.config ~salt:0x7fa9_1e55 slot) in
  let send_copy update =
    if dl.loss > 0. && Rng.float (Lazy.force fault_rng) 1.0 < dl.loss then
      t.hooks.Hooks.on_drop ~time:(Sim.now t.sim) ~src ~dst update
    else begin
      let now = Sim.now t.sim in
      let delay =
        t.config.Config.link_delay
        +.
        if t.config.Config.link_jitter > 0. then Rng.float delay_rng t.config.Config.link_jitter
        else 0.
      in
      let at = Float.max (now +. delay) (dl.last_delivery +. 1e-9) in
      dl.last_delivery <- at;
      let epoch = ls.epoch in
      if t.owned.(dst) then begin
        t.in_flight <- t.in_flight + 1;
        ignore
          (Sim.schedule_at t.sim ~time:at (fun _ ->
               t.in_flight <- t.in_flight - 1;
               if operational t ls src dst && ls.epoch = epoch then begin
                 t.hooks.Hooks.on_deliver ~time:(Sim.now t.sim) ~src ~dst update;
                 match t.routers.(dst) with
                 | Some r -> Router.receive r ~from_peer:src update
                 | None -> assert false
               end))
      end
      else
        match t.emit with
        | Some emit ->
            emit
              {
                remote_eid = eid;
                remote_src = src;
                remote_dst = dst;
                remote_at = at;
                remote_epoch = epoch;
                remote_update = update;
              }
        | None -> assert false (* unowned dst implies partitioned mode *)
    end
  in
  fun update ->
    if operational t ls src dst then begin
      send_copy update;
      if dl.duplication > 0. && Rng.float (Lazy.force fault_rng) 1.0 < dl.duplication then begin
        t.hooks.Hooks.on_duplicate ~time:(Sim.now t.sim) ~src ~dst update;
        send_copy update
      end
    end

let create ?policy ?ownership ~config sim graph =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Network.create: " ^ msg));
  let policy = match policy with Some p -> p | None -> Policy.announce_all in
  let n = Graph.num_nodes graph in
  let owned, emit =
    match ownership with
    | None -> (Array.make n true, None)
    | Some (owned, emit) ->
        if Array.length owned <> n then
          invalid_arg "Network.create: ownership array length must equal num_nodes";
        (Array.copy owned, Some emit)
  in
  let master = Rng.create config.Config.seed in
  let deploy_rng = Rng.split master in
  (* The second split is reserved (nothing draws from it), so every
     router's stream keeps its position in the split chain. *)
  ignore (Rng.split master);
  let hooks = Hooks.create () in
  let damping_deployed = deployment_flags config deploy_rng n in
  let params_at node =
    if not damping_deployed.(node) then None
    else
      match List.assoc_opt node config.Config.damping_overrides with
      | Some params -> Some params
      | None -> config.Config.damping
  in
  (* One intern table per network: ids are assigned in deterministic
     simulation order, so Marshal-based digests of anything referencing
     interned routes stay reproducible run to run. *)
  let table = Route.create_table ~size:(max 256 n) () in
  (* Every partition replays the full master split sequence — one split per
     node, in node order — and builds only its owned routers, so a router's
     RNG stream is a function of (seed, node id) alone, not of the
     partitioning. *)
  let routers = Array.make n None in
  let rec build node =
    if node < n then begin
      let rng = Rng.split master in
      if owned.(node) then
        routers.(node) <-
          Some
            (Router.create ~table ~sim ~id:node ~policy ~config
               ~damping:(params_at node) ~rng ~hooks ());
      build (node + 1)
    end
  in
  build 0;
  let m = Graph.num_edges graph in
  let t =
    {
      sim;
      graph;
      config;
      hooks;
      table;
      routers;
      owned;
      emit;
      routers_up = Array.make n true;
      damping_deployed;
      links = Array.init m (fun _ -> { up = true; epoch = 0 });
      directed =
        Array.init (2 * m) (fun _ -> { last_delivery = 0.; loss = 0.; duplication = 0. });
      in_flight = 0;
    }
  in
  Array.iter
    (fun (u, v) ->
      (match t.routers.(u) with
      | Some r -> Router.connect r ~peer:v ~send:(make_sender t u v)
      | None -> ());
      match t.routers.(v) with
      | Some r -> Router.connect r ~peer:u ~send:(make_sender t v u)
      | None -> ())
    (Graph.edges graph);
  t

let sim t = t.sim
let graph t = t.graph
let hooks t = t.hooks
let route_table t = t.table

let check_node t node =
  if node < 0 || node >= Array.length t.routers then
    invalid_arg (Printf.sprintf "Network: node %d out of range" node)

let owns t node =
  check_node t node;
  t.owned.(node)

let router t node =
  if node < 0 || node >= Array.length t.routers then
    invalid_arg (Printf.sprintf "Network.router: node %d out of range" node);
  match t.routers.(node) with
  | Some r -> r
  | None ->
      invalid_arg (Printf.sprintf "Network.router: node %d owned by another partition" node)

let num_routers t = Array.length t.routers
let damping_at t node = t.damping_deployed.(node)

let originate t ~node prefix = Router.originate (router t node) prefix
let withdraw t ~node prefix = Router.withdraw_prefix (router t node) prefix

let schedule_originate t ~at ~node prefix =
  ignore (Sim.schedule_at t.sim ~time:at (fun _ -> originate t ~node prefix))

let schedule_withdraw t ~at ~node prefix =
  ignore (Sim.schedule_at t.sim ~time:at (fun _ -> withdraw t ~node prefix))

(* Cross-partition delivery: schedule a message drained from another
   partition's outbox at a barrier. The timestamp was fixed (FIFO floor
   included) on the sending side; the epoch guard re-checks against this
   partition's replica of the link state, which has executed exactly the
   same administrative transitions. *)
let deliver_remote t { remote_eid = eid; remote_src = src; remote_dst = dst;
                       remote_at = at; remote_epoch = epoch; remote_update = update } =
  let ls = t.links.(eid) in
  (match t.routers.(dst) with
  | Some _ -> ()
  | None ->
      invalid_arg
        (Printf.sprintf "Network.deliver_remote: node %d owned by another partition" dst));
  t.in_flight <- t.in_flight + 1;
  ignore
    (Sim.schedule_at t.sim ~time:at (fun _ ->
         t.in_flight <- t.in_flight - 1;
         if operational t ls src dst && ls.epoch = epoch then begin
           t.hooks.Hooks.on_deliver ~time:(Sim.now t.sim) ~src ~dst update;
           match t.routers.(dst) with
           | Some r -> Router.receive r ~from_peer:src update
           | None -> assert false
         end))

let fail_link t u v =
  let ls = link_state_exn t u v in
  if ls.up then begin
    let was = operational t ls u v in
    ls.up <- false;
    if was then down_transition t ls u v
  end

let restore_link t u v =
  let ls = link_state_exn t u v in
  if not ls.up then begin
    ls.up <- true;
    (* Only a session whose endpoints are both alive comes back; a restore
       under a crashed endpoint takes effect when that router restarts. *)
    if operational t ls u v then up_transition t u v
  end

let link_up t u v = (link_state_exn t u v).up
let link_operational t u v = operational t (link_state_exn t u v) u v

let schedule_fail_link t ~at u v =
  ignore (Sim.schedule_at t.sim ~time:at (fun _ -> fail_link t u v))

let schedule_restore_link t ~at u v =
  ignore (Sim.schedule_at t.sim ~time:at (fun _ -> restore_link t u v))

(* ------------------------------------------------------------------ *)
(* Router crash / restart                                              *)

let router_is_up t node =
  check_node t node;
  t.routers_up.(node)

let crash_router t node =
  check_node t node;
  if t.routers_up.(node) then begin
    (* Tear down every operational incident session (both endpoints observe
       peer_down, exactly as for a link failure), then mark the router dead
       so nothing is delivered to or sent from it until restart. *)
    Array.iter
      (fun peer ->
        let ls = link_state_exn t node peer in
        if operational t ls node peer then down_transition t ls node peer)
      (Graph.neighbors t.graph node);
    t.routers_up.(node) <- false
  end

let restart_router t node =
  check_node t node;
  if not t.routers_up.(node) then begin
    t.routers_up.(node) <- true;
    (* Sessions whose link is administratively up and whose other endpoint
       is alive come back with full-table re-advertisement. *)
    Array.iter
      (fun peer ->
        let ls = link_state_exn t node peer in
        if operational t ls node peer then up_transition t node peer)
      (Graph.neighbors t.graph node)
  end

let schedule_crash t ~at node =
  ignore (Sim.schedule_at t.sim ~time:at (fun _ -> crash_router t node))

let schedule_restart t ~at node =
  ignore (Sim.schedule_at t.sim ~time:at (fun _ -> restart_router t node))

(* ------------------------------------------------------------------ *)
(* Transport degradation (fault injection)                             *)

let check_probability name p =
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg
      (Printf.sprintf "Network.set_degradation: %s probability %g outside [0, 1]" name p)

let set_degradation t ~src ~dst ~loss ~duplication =
  check_probability "loss" loss;
  check_probability "duplication" duplication;
  let dl = directed_exn t ~src ~dst in
  dl.loss <- loss;
  dl.duplication <- duplication

let degradation t ~src ~dst =
  let dl = directed_exn t ~src ~dst in
  (dl.loss, dl.duplication)

let run ?until t = Sim.run ?until t.sim

let in_flight t = t.in_flight

let fold_routers t ~init ~f =
  Array.fold_left (fun acc r -> match r with Some r -> f acc r | None -> acc) init t.routers

let reuse_timer_events t =
  fold_routers t ~init:0 ~f:(fun acc r -> acc + Router.reuse_timer_events r)

let peak_reuse_timers t =
  fold_routers t ~init:0 ~f:(fun acc r -> acc + Router.peak_reuse_timers r)

let activity t =
  fold_routers t
    ~init:{ Oracle.zero with Oracle.in_flight = t.in_flight }
    ~f:(fun acc r -> Oracle.add acc (Router.activity r))

let rib_fixpoint t prefix =
  Array.for_all
    (function
      | None -> true
      | Some r -> (
          match (Router.best r prefix, Router.recompute_best r prefix) with
          | None, None -> true
          | Some a, Some b -> Route.equal a b
          | Some _, None | None, Some _ -> false))
    t.routers

let status t prefix = Oracle.classify ~rib_fixpoint:(rib_fixpoint t prefix) (activity t)
let converged t prefix = Oracle.is_stable (status t prefix)
let quiescent t prefix = Oracle.is_quiet (status t prefix)

let reachable_count t prefix =
  fold_routers t ~init:0 ~f:(fun acc r -> if Router.best r prefix <> None then acc + 1 else acc)
