module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Graph = Rfd_topology.Graph
module Column = Rfd_engine.Column

(* The in-flight table: one row per message on the wire, network-wide,
   in five columns that share one chunk spine. A row holds a link to
   another row, the sender-side link epoch, the announced route's
   interned path (the empty path for a withdrawal), the sender's shared
   root-cause option and a code: bit 0 set for a withdrawal, bits 1-2 an
   announcement's rel-pref code, and above them the prefix id. A message
   in flight owns no heap block: it costs five table words and two heap
   words.

   A delivery event is a post of the directed slot alone on the network's
   delivery channel, so same-instant deliveries run in slot order and
   compare with other events by what they are, never by the row, which
   depends on the partition layout. The rows in flight on a slot form a
   ring in send order: [w_last] holds the slot's newest row, and each row
   links to the next newer one, the newest to the oldest. Deliveries on a
   slot pop in send order (the FIFO floor in [send_copy] gives them
   increasing times), so [deliver] takes the ring's oldest row. The first
   chunk doubles from 256 rows up to [Column.chunk_cells]; later chunks
   are never copied. Free rows are chained through [w_link] and hold
   [None], so a delivered root cause is released at once; a free row's
   path is interned, so it keeps nothing alive. *)
type rows = {
  w_link : int array; (* next row in the slot's ring; next free row when free *)
  w_epoch : int array;
  w_path : As_path.t array;
  w_rc : Root_cause.t option array;
  w_code : int array;
}

type wire = {
  w_rows : rows Column.Chunks.t;
  mutable w_free : int; (* head of the free-row list, -1 when empty *)
  w_last : int array; (* by slot: its newest row in flight, -1 when none *)
}

let make_rows n =
  {
    w_link = Array.make n (-1);
    w_epoch = Array.make n 0;
    w_path = Array.make n As_path.empty;
    w_rc = Array.make n None;
    w_code = Array.make n 0;
  }

let blit_rows a i b j n =
  Array.blit a.w_link i b.w_link j n;
  Array.blit a.w_epoch i b.w_epoch j n;
  Array.blit a.w_path i b.w_path j n;
  Array.blit a.w_rc i b.w_rc j n;
  Array.blit a.w_code i b.w_code j n

(* A row's offset in its chunk. *)
let cell_mask = Column.chunk_cells - 1

(* Rel-pref codes 1 to 3, 0 for none. The options are constants, so
   neither side boxes one per message. *)
let rel_pref_code = function
  | None -> 0
  | Some Update.Better -> 1
  | Some Update.Worse -> 2
  | Some Update.Same_pref -> 3

let rel_pref_of_code = function
  | 1 -> Some Update.Better
  | 2 -> Some Update.Worse
  | 3 -> Some Update.Same_pref
  | _ -> None

type remote = {
  remote_eid : int;
  remote_src : int;
  remote_dst : int;
  remote_at : float; (* absolute delivery time, FIFO floor already applied *)
  remote_epoch : int; (* sender-side link epoch at send time *)
  remote_update : Update.t;
}

type event_counts = {
  deliveries : int;
  flushes : int;
  reuses : int;
  wheels : int;
  ops : int;
}

(* Link state is columns indexed by the graph's stable edge ids: [up] and
   [epoch] per undirected link, and the transport state per directed link
   at slot [2*eid + dir], with [dir = 0] for the min->max direction — the
   slot the in-flight table, the routers' sessions and their timer posts
   name a link by. A directed link owns no heap block: its FIFO floor,
   loss and duplication are unboxed floats and its delay and fault streams
   8-byte SplitMix64 states.

   Transport randomness is per directed link: each link draws delay jitter
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
  paths : As_path.table; (* the one intern table: every router's paths *)
  routers : Router.t option array; (* None = owned by another partition *)
  owned : bool array;
  emit : remote -> unit; (* cross-partition outbox *)
  routers_up : bool array; (* false while crashed *)
  damping_deployed : bool array;
  up : Bytes.t; (* by edge id: administratively up (not failed by fail_link) *)
  epoch : int array; (* by edge id: bumped on failure to void in-flight messages *)
  floor : Float.Array.t; (* by slot: last delivery time, the FIFO floor *)
  loss : Float.Array.t; (* by slot: fault-injected per-message loss probability *)
  duplication : Float.Array.t; (* by slot: fault-injected duplication probability *)
  delay_streams : Rng.column; (* by slot: jitter draws *)
  mutable fault_streams : Rng.column; (* by slot; empty until set_degradation *)
  wire : wire;
  deliver_on : Sim.channel; (* posts a [wire] row to [deliver] *)
  flush_on : Sim.channel;
  reuse_on : Sim.channel;
  wheel_on : Sim.channel;
  mutable in_flight : int;
}

let edge_id_exn t u v =
  match Graph.edge_id t.graph u v with
  | Some eid -> eid
  | None -> invalid_arg (Printf.sprintf "Network: (%d,%d) is not a link" u v)

let directed_slot eid ~src ~dst = (2 * eid) + if src < dst then 0 else 1
let slot_exn t ~src ~dst = directed_slot (edge_id_exn t src dst) ~src ~dst

(* The endpoints of a directed slot, without building a pair. *)
let slot_src t slot =
  let u, v = Graph.edge_endpoints t.graph (slot lsr 1) in
  if slot land 1 = 0 then u else v

let slot_dst t slot =
  let u, v = Graph.edge_endpoints t.graph (slot lsr 1) in
  if slot land 1 = 0 then v else u

(* A link carries traffic only when it is administratively up and neither
   endpoint router is crashed. All up/down session transitions below are in
   terms of this predicate, so link faults and router crashes compose. *)
let operational t eid u v = Bytes.get t.up eid <> '\000' && t.routers_up.(u) && t.routers_up.(v)

(* Session transitions touch only locally-owned routers; under partitioning
   every administrative event is replicated to all partitions, so the union
   of the local effects equals the single-domain behaviour. *)
let peer_down_at t node ~peer =
  match t.routers.(node) with Some r -> Router.peer_down r ~peer | None -> ()

let peer_up_at t node ~peer =
  match t.routers.(node) with Some r -> Router.peer_up r ~peer | None -> ()

let down_transition t eid u v =
  t.epoch.(eid) <- t.epoch.(eid) + 1;
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

(* Seed-derived per-directed-slot streams, decorrelated by slot with the
   SplitMix64 increment. Independent of the master split chain, so adding
   streams never perturbs router jitter. *)
let streams config ~salt slots =
  Rng.column slots ~seed:(fun slot -> (config.Config.seed lxor salt) + ((slot + 1) * 0x9E37_79B9))

let delay_salt = 0x2d35_8dcc
let fault_salt = 0x7fa9_1e55

(* Every message on the wire, local or drained from another partition,
   arrives through here. The epoch guard drops it when its link failed (or
   an endpoint crashed) while it was in flight; an update is rebuilt only
   for a message that arrives. *)
let deliver t slot =
  let w = t.wire in
  let last = w.w_last.(slot) in
  let lc = Column.Chunks.chunk w.w_rows last and lj = last land cell_mask in
  let row = lc.w_link.(lj) in
  let c = Column.Chunks.chunk w.w_rows row and j = row land cell_mask in
  if row = last then w.w_last.(slot) <- -1 else lc.w_link.(lj) <- c.w_link.(j);
  let epoch = c.w_epoch.(j) and path = c.w_path.(j) in
  let rc = c.w_rc.(j) and code = c.w_code.(j) in
  c.w_link.(j) <- w.w_free;
  c.w_rc.(j) <- None;
  w.w_free <- row;
  t.in_flight <- t.in_flight - 1;
  let eid = slot lsr 1 in
  let src = slot_src t slot and dst = slot_dst t slot in
  if operational t eid src dst && t.epoch.(eid) = epoch then begin
    let prefix = Prefix.v (code lsr 3) in
    let update =
      if code land 1 = 1 then Update.Withdraw { prefix; rc }
      else
        let rel_pref = rel_pref_of_code ((code lsr 1) land 3) in
        Update.Announce { route = Route.make ~prefix ~path; rc; rel_pref }
    in
    t.hooks.Hooks.on_deliver ~time:(Sim.now t.sim) ~src ~dst update;
    match t.routers.(dst) with
    | Some r -> Router.receive r ~from_peer:src update
    | None -> assert false
  end

(* The post comes first, so a delivery time the simulator refuses leaves
   the table and the in-flight count untouched. The row keeps the
   update's fields, not the update, and becomes its slot's newest. *)
let put_on_wire t ~at ~slot ~epoch update =
  let w = t.wire in
  (* With the free list empty, a new row is its end. *)
  if w.w_free < 0 then w.w_free <- Column.Chunks.add ~make:make_rows ~blit:blit_rows w.w_rows;
  let row = w.w_free in
  Sim.post t.sim t.deliver_on ~time:at slot;
  let c = Column.Chunks.chunk w.w_rows row and j = row land cell_mask in
  w.w_free <- c.w_link.(j);
  let last = w.w_last.(slot) in
  if last < 0 then c.w_link.(j) <- row
  else begin
    let lc = Column.Chunks.chunk w.w_rows last and lj = last land cell_mask in
    c.w_link.(j) <- lc.w_link.(lj);
    lc.w_link.(lj) <- row
  end;
  w.w_last.(slot) <- row;
  c.w_epoch.(j) <- epoch;
  (match update with
  | Update.Announce { route = { Route.prefix; path }; rc; rel_pref } ->
      c.w_path.(j) <- path;
      c.w_rc.(j) <- rc;
      c.w_code.(j) <- (Prefix.to_int prefix lsl 3) lor (rel_pref_code rel_pref lsl 1)
  | Update.Withdraw { prefix; rc } ->
      c.w_path.(j) <- As_path.empty;
      c.w_rc.(j) <- rc;
      c.w_code.(j) <- (Prefix.to_int prefix lsl 3) lor 1);
  t.in_flight <- t.in_flight + 1

let fault_draw t slot p = p > 0. && Rng.column_float t.fault_streams slot 1.0 < p

(* One copy on directed link [slot]: sample a delay, keep per-direction
   FIFO order, and stamp the sender-side epoch so a failure while in flight
   drops it. The floor is strict: a copy lands at least 1 ns after the
   link's last one, or one ulp after it where adding 1 ns rounds back
   (from 2^24 s, about 194 days, on), so no two deliveries on a link share
   an instant. When the destination belongs to another partition the
   fully-timestamped message goes to the outbox instead of the local event
   queue; its delivery time is at least link_delay beyond now, which is
   exactly the lookahead the epoch engine runs with, so it can wait for the
   barrier. *)
let send_copy t slot ~src ~dst update =
  if fault_draw t slot (Float.Array.get t.loss slot) then
    t.hooks.Hooks.on_drop ~time:(Sim.now t.sim) ~src ~dst update
  else begin
    let jitter = t.config.Config.link_jitter in
    let delay =
      t.config.Config.link_delay
      +. if jitter > 0. then Rng.column_float t.delay_streams slot jitter else 0.
    in
    let floor = Float.Array.get t.floor slot in
    let at = Float.max (Sim.now t.sim +. delay) (Float.max (floor +. 1e-9) (Float.succ floor)) in
    Float.Array.set t.floor slot at;
    let eid = slot lsr 1 in
    let epoch = t.epoch.(eid) in
    if t.owned.(dst) then put_on_wire t ~at ~slot ~epoch update
    else
      t.emit
        {
          remote_eid = eid;
          remote_src = src;
          remote_dst = dst;
          remote_at = at;
          remote_epoch = epoch;
          remote_update = update;
        }
  end

(* The transport, one function for every directed link: a message sent on
   a failed link (or from or to a crashed router) is dropped.

   Fault injection happens here: a message may be duplicated (a second copy
   follows the first) and each copy is independently subject to loss. Every
   surviving copy goes through the same FIFO floor, so deliveries on a
   directed link never reorder even under duplication. The fault streams
   are drawn only when the corresponding probability is non-zero, so
   fault-free runs are bit-identical to runs on a build without fault
   injection. *)
let transmit t slot update =
  let src = slot_src t slot and dst = slot_dst t slot in
  if operational t (slot lsr 1) src dst then begin
    send_copy t slot ~src ~dst update;
    if fault_draw t slot (Float.Array.get t.duplication slot) then begin
      t.hooks.Hooks.on_duplicate ~time:(Sim.now t.sim) ~src ~dst update;
      send_copy t slot ~src ~dst update
    end
  end

(* A flush or reuse post names its session's directed link; the link's
   source router owns the timer. *)
let session_timer t fire key =
  let slot = Router.session_link key in
  match t.routers.(slot_src t slot) with
  | Some r -> fire r ~peer:(slot_dst t slot) key
  | None -> assert false

let wheel_timer t ~node_bits key =
  match t.routers.(Router.wheel_router ~node_bits key) with
  | Some r -> Router.wheel_due r key
  | None -> assert false

(* Bits that hold a router id in a wheel post's argument. *)
let id_bits n =
  let rec go bits = if 1 lsl bits >= n then bits else go (bits + 1) in
  max 1 (go 0)

let create ?policy ~ownership:(owned, emit) ~config sim graph =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Network.create: " ^ msg));
  let policy = match policy with Some p -> p | None -> Policy.announce_all in
  let n = Graph.num_nodes graph in
  if Array.length owned <> n then
    invalid_arg "Network.create: ownership array length must equal num_nodes";
  let owned = Array.copy owned in
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
  (* One intern table per network, for AS paths (routes are not
     interned): ids are assigned in deterministic simulation order, so
     Marshal-based digests of anything referencing interned paths stay
     reproducible run to run. *)
  let paths = As_path.create_table ~size:(max 256 n) () in
  let m = Graph.num_edges graph in
  if m > 0 && (2 * m) - 1 > Sim.max_arg lsr Router.prefix_bits then
    invalid_arg
      (Printf.sprintf
         "Network.create: %d directed links do not fit a timer post beside %d prefix bits"
         (2 * m) Router.prefix_bits);
  let node_bits = id_bits n in
  (* The channel handlers need the network they hand events to. *)
  let rec self =
    lazy
      {
        sim;
        graph;
        config;
        hooks;
        paths;
        routers = Array.make n None;
        owned;
        emit;
        routers_up = Array.make n true;
        damping_deployed;
        up = Bytes.make m '\001';
        epoch = Array.make m 0;
        floor = Float.Array.make (2 * m) 0.;
        loss = Float.Array.make (2 * m) 0.;
        duplication = Float.Array.make (2 * m) 0.;
        delay_streams = streams config ~salt:delay_salt (2 * m);
        fault_streams = Rng.column 0 ~seed:Fun.id;
        wire =
          {
            w_rows = Column.Chunks.create ~first:256 ~make:make_rows;
            w_free = -1;
            w_last = Array.make (2 * m) (-1);
          };
        deliver_on = Sim.channel sim (fun _ slot -> deliver (Lazy.force self) slot);
        flush_on =
          Sim.channel sim (fun _ key -> session_timer (Lazy.force self) Router.flush_due key);
        reuse_on =
          Sim.channel sim (fun _ key -> session_timer (Lazy.force self) Router.reuse_due key);
        wheel_on = Sim.channel sim (fun _ key -> wheel_timer (Lazy.force self) ~node_bits key);
        in_flight = 0;
      }
  in
  let t = Lazy.force self in
  let ports =
    {
      Router.transmit = transmit t;
      flush_on = t.flush_on;
      reuse_on = t.reuse_on;
      wheel_on = t.wheel_on;
      node_bits;
    }
  in
  (* Every partition replays the full master split sequence — one split per
     node, in node order — and builds only its owned routers, so a router's
     RNG stream is a function of (seed, node id) alone, not of the
     partitioning. *)
  for node = 0 to n - 1 do
    let rng = Rng.split master in
    if owned.(node) then
      t.routers.(node) <-
        Some
          (Router.create ~paths ~sim ~id:node ~policy ~config ~damping:(params_at node) ~rng
             ~hooks ~ports ())
  done;
  Array.iteri
    (fun eid (u, v) ->
      (match t.routers.(u) with
      | Some r -> Router.connect r ~peer:v ~link:(directed_slot eid ~src:u ~dst:v)
      | None -> ());
      match t.routers.(v) with
      | Some r -> Router.connect r ~peer:u ~link:(directed_slot eid ~src:v ~dst:u)
      | None -> ())
    (Graph.edges graph);
  t

let sim t = t.sim
let graph t = t.graph
let hooks t = t.hooks
let route_table t = t.paths

let check_node t node =
  if node < 0 || node >= Array.length t.routers then
    invalid_arg (Printf.sprintf "Network: node %d out of range" node)

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

(* Cross-partition delivery: put a message drained from another
   partition's outbox on this partition's wire at a barrier. The timestamp
   was fixed (FIFO floor included) on the sending side; the epoch guard in
   [deliver] re-checks against this partition's replica of the link state,
   which has executed exactly the same administrative transitions. *)
let deliver_remote t { remote_eid = eid; remote_src = src; remote_dst = dst;
                       remote_at = at; remote_epoch = epoch; remote_update = update } =
  (match t.routers.(dst) with
  | Some _ -> ()
  | None ->
      invalid_arg
        (Printf.sprintf "Network.deliver_remote: node %d owned by another partition" dst));
  put_on_wire t ~at ~slot:(directed_slot eid ~src ~dst) ~epoch update

let is_up t eid = Bytes.get t.up eid <> '\000'

let fail_link t u v =
  let eid = edge_id_exn t u v in
  if is_up t eid then begin
    let was = operational t eid u v in
    Bytes.set t.up eid '\000';
    if was then down_transition t eid u v
  end

let restore_link t u v =
  let eid = edge_id_exn t u v in
  if not (is_up t eid) then begin
    Bytes.set t.up eid '\001';
    (* Only a session whose endpoints are both alive comes back; a restore
       under a crashed endpoint takes effect when that router restarts. *)
    if operational t eid u v then up_transition t u v
  end

let link_up t u v = is_up t (edge_id_exn t u v)
let link_operational t u v = operational t (edge_id_exn t u v) u v

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
        let eid = edge_id_exn t node peer in
        if operational t eid node peer then down_transition t eid node peer)
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
        if operational t (edge_id_exn t node peer) node peer then up_transition t node peer)
      (Graph.neighbors t.graph node)
  end

(* ------------------------------------------------------------------ *)
(* Transport degradation (fault injection)                             *)

let check_probability name p =
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg
      (Printf.sprintf "Network.set_degradation: %s probability %g outside [0, 1]" name p)

(* Fault draws happen only on degraded links, so a run that never
   degrades one never seeds the fault streams. Each is a pure function of
   (seed, slot), so seeding them all at the first degradation draws
   exactly what streams seeded at creation would. *)
let set_degradation t ~src ~dst ~loss ~duplication =
  check_probability "loss" loss;
  check_probability "duplication" duplication;
  let slot = slot_exn t ~src ~dst in
  if Rng.column_length t.fault_streams = 0 then
    t.fault_streams <- streams t.config ~salt:fault_salt (Float.Array.length t.loss);
  Float.Array.set t.loss slot loss;
  Float.Array.set t.duplication slot duplication

let degradation t ~src ~dst =
  let slot = slot_exn t ~src ~dst in
  (Float.Array.get t.loss slot, Float.Array.get t.duplication slot)

let in_flight t = t.in_flight

let event_counts t =
  let deliveries = Sim.channel_events t.sim t.deliver_on
  and flushes = Sim.channel_events t.sim t.flush_on
  and reuses = Sim.channel_events t.sim t.reuse_on
  and wheels = Sim.channel_events t.sim t.wheel_on in
  let ops = Sim.events_executed t.sim - deliveries - flushes - reuses - wheels in
  { deliveries; flushes; reuses; wheels; ops }

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

let reachable_count t prefix =
  fold_routers t ~init:0 ~f:(fun acc r -> if Router.best r prefix <> None then acc + 1 else acc)
