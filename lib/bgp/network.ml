module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Graph = Rfd_topology.Graph
module Column = Rfd_engine.Column

(* The in-flight table: one row per message on the wire, network-wide,
   in five columns that share one chunk spine. A row holds a link to
   another row, the announced route's interned path (the empty path for a
   withdrawal), the sender's shared root-cause option, a code and the
   delivery time. The code holds the kind in bit 0 (set for a
   withdrawal), an announcement's rel-pref code in bits 1-2, the void bit
   in bit 3 (set when the link went down while the row was in flight, so
   [deliver] drops it) and the prefix id above them. A message in flight
   owns no heap block and no heap entry of its own: it costs five table
   words.

   The rows in flight on a directed slot form a ring in send order:
   [w_last] holds the slot's newest row, and each row links to the next
   newer one, the newest to the oldest. The FIFO floor in [send_copy]
   gives a slot's rows strictly increasing times, so only the oldest can
   be the next to arrive: a slot with rows in flight has exactly one
   pending delivery, a post of the slot alone on the network's delivery
   channel, at its oldest row's time. [deliver] takes that row and posts
   the next one's time from its column. Same-instant deliveries run in
   slot order and compare with other events by what they are, never by
   the row, which depends on the partition layout. The first chunk
   doubles from 256 rows up to [Column.chunk_cells]; later chunks are
   never copied. Free rows are chained through [w_link] and hold [None],
   so a delivered root cause is released at once; a free row's path is
   interned, so it keeps nothing alive. *)
type rows = {
  w_link : int array; (* next row in the slot's ring; next free row when free *)
  w_path : As_path.t array;
  w_rc : Root_cause.t option array;
  w_code : int array;
  w_time : Float.Array.t; (* delivery time *)
}

type wire = {
  w_rows : rows Column.Chunks.t;
  mutable w_free : int; (* head of the free-row list, -1 when empty *)
  w_last : int array; (* by slot: its newest row in flight, -1 when none *)
}

let make_rows n =
  {
    w_link = Array.make n (-1);
    w_path = Array.make n As_path.empty;
    w_rc = Array.make n None;
    w_code = Array.make n 0;
    w_time = Float.Array.make n 0.;
  }

let blit_rows a i b j n =
  Array.blit a.w_link i b.w_link j n;
  Array.blit a.w_path i b.w_path j n;
  Array.blit a.w_rc i b.w_rc j n;
  Array.blit a.w_code i b.w_code j n;
  Float.Array.blit a.w_time i b.w_time j n

(* The code word's fields. A router sends only prefix ids it has slots
   for, and slot columns are arrays (under [Sys.max_array_length], 2^54
   cells), so an id shifted past the four flag bits fits an int. *)
let withdrawal_bit = 1
let void_bit = 8
let prefix_shift = 4

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

(* Fault injection's columns, by directed slot: loss and duplication
   probabilities and the streams they are drawn from. A network has them
   from its first [set_degradation] on. *)
type faults = {
  loss : Float.Array.t;
  duplication : Float.Array.t;
  fault_streams : Rng.column;
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
  mutable routers : Router.t array;
      (* by node, views of one arena, set once by [create]; a node another
         partition owns holds the arena's vacant view *)
  emit : remote -> unit; (* cross-partition outbox *)
  routers_up : Bytes.t; (* by node: 0 while crashed *)
  damping_deployed : Bytes.t; (* by node *)
  up : Bytes.t; (* by edge id: administratively up (not failed by fail_link) *)
  epoch : int array; (* by edge id: bumped at each down transition *)
  floor : Float.Array.t; (* by slot: last delivery time, the FIFO floor *)
  delay_streams : Rng.column; (* by slot: jitter draws *)
  mutable faults : faults option; (* None until the first set_degradation *)
  wire : wire;
  deliver_on : Sim.channel; (* posts a slot whose oldest row is due to [deliver] *)
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
let router_up t node = Bytes.get_uint8 t.routers_up node <> 0
let operational t eid u v = Bytes.get t.up eid <> '\000' && router_up t u && router_up t v

let owns t node = Router.id t.routers.(node) = node

(* Session transitions touch only locally-owned routers; under partitioning
   every administrative event is replicated to all partitions, so the union
   of the local effects equals the single-domain behaviour. *)
let peer_down_at t node ~peer = if owns t node then Router.peer_down t.routers.(node) ~peer
let peer_up_at t node ~peer = if owns t node then Router.peer_up t.routers.(node) ~peer

(* Mark every row in flight on [slot] void. *)
let void_slot w slot =
  let last = w.w_last.(slot) in
  if last >= 0 then begin
    let row = ref last and more = ref true in
    while !more do
      let c = Column.Chunks.chunk w.w_rows !row and j = !row land cell_mask in
      c.w_code.(j) <- c.w_code.(j) lor void_bit;
      row := c.w_link.(j);
      more := !row <> last
    done
  end

(* The epoch changes here and only here, and the rows in flight on the
   link's two slots are voided with it, before either endpoint reacts: a
   message its routers send on the link from now on is not void, as it
   carries the new epoch. *)
let down_transition t eid u v =
  t.epoch.(eid) <- t.epoch.(eid) + 1;
  void_slot t.wire (2 * eid);
  void_slot t.wire ((2 * eid) + 1);
  peer_down_at t u ~peer:v;
  peer_down_at t v ~peer:u

let up_transition t u v =
  peer_up_at t u ~peer:v;
  peer_up_at t v ~peer:u

let deployment_flags config rng n =
  let flags = Bytes.make n '\000' in
  (match config.Config.damping with
  | None -> ()
  | Some _ -> (
      match config.Config.deployment with
      | Config.Everywhere -> Bytes.fill flags 0 n '\001'
      | Config.Nowhere -> ()
      | Config.Fraction f ->
          for i = 0 to n - 1 do
            if Rng.float rng 1.0 < f then Bytes.set_uint8 flags i 1
          done
      | Config.Only nodes ->
          List.iter
            (fun node ->
              if node < 0 || node >= n then
                invalid_arg (Printf.sprintf "Network: deployment node %d out of range" node);
              Bytes.set_uint8 flags node 1)
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
   arrives through here. A void row is dropped: its link failed (or an
   endpoint crashed) while it was in flight. An update is rebuilt only for
   a message that arrives. *)
let deliver t slot =
  let w = t.wire in
  let last = w.w_last.(slot) in
  let lc = Column.Chunks.chunk w.w_rows last and lj = last land cell_mask in
  let row = lc.w_link.(lj) in
  let c = Column.Chunks.chunk w.w_rows row and j = row land cell_mask in
  if row = last then w.w_last.(slot) <- -1
  else begin
    let next = c.w_link.(j) in
    lc.w_link.(lj) <- next;
    let nc = Column.Chunks.chunk w.w_rows next in
    Sim.post_cell t.sim t.deliver_on nc.w_time (next land cell_mask) slot
  end;
  let path = c.w_path.(j) and rc = c.w_rc.(j) and code = c.w_code.(j) in
  c.w_link.(j) <- w.w_free;
  c.w_rc.(j) <- None;
  w.w_free <- row;
  t.in_flight <- t.in_flight - 1;
  let eid = slot lsr 1 in
  let src = slot_src t slot and dst = slot_dst t slot in
  if code land void_bit = 0 && operational t eid src dst then begin
    let prefix = Prefix.v (code lsr prefix_shift) in
    let update =
      if code land withdrawal_bit <> 0 then Update.Withdraw { prefix; rc }
      else
        let rel_pref = rel_pref_of_code ((code lsr 1) land 3) in
        Update.Announce { route = Route.make ~prefix ~path; rc; rel_pref }
    in
    t.hooks.Hooks.on_deliver ~time:(Sim.now t.sim) ~src ~dst update;
    Router.receive t.routers.(dst) ~from_peer:src update
  end

(* The row becomes its slot's newest and is posted only when it is the
   slot's one row. A time the simulator refuses, or one not after the
   newest row's (which is no earlier than the clock), is refused before
   anything changes. The row keeps the update's fields, not the update. *)
let put_on_wire t ~at ~slot ~void update =
  let w = t.wire in
  let last = w.w_last.(slot) in
  if last < 0 then Sim.post t.sim t.deliver_on ~time:at slot
  else begin
    let newest = Float.Array.get (Column.Chunks.chunk w.w_rows last).w_time (last land cell_mask) in
    if not (at > newest) then
      invalid_arg
        (Printf.sprintf "Network: delivery at %.17g on slot %d is not after its newest row's %.17g"
           at slot newest)
  end;
  (* With the free list empty, a new row is its end. *)
  if w.w_free < 0 then w.w_free <- Column.Chunks.add ~make:make_rows ~blit:blit_rows w.w_rows;
  let row = w.w_free in
  let c = Column.Chunks.chunk w.w_rows row and j = row land cell_mask in
  w.w_free <- c.w_link.(j);
  if last < 0 then c.w_link.(j) <- row
  else begin
    let lc = Column.Chunks.chunk w.w_rows last and lj = last land cell_mask in
    c.w_link.(j) <- lc.w_link.(lj);
    lc.w_link.(lj) <- row
  end;
  w.w_last.(slot) <- row;
  Float.Array.set c.w_time j at;
  (match update with
  | Update.Announce { route = { Route.prefix; path }; rc; rel_pref } ->
      c.w_path.(j) <- path;
      c.w_rc.(j) <- rc;
      c.w_code.(j) <- (Prefix.to_int prefix lsl prefix_shift) lor (rel_pref_code rel_pref lsl 1)
  | Update.Withdraw { prefix; rc } ->
      c.w_path.(j) <- As_path.empty;
      c.w_rc.(j) <- rc;
      c.w_code.(j) <- (Prefix.to_int prefix lsl prefix_shift) lor withdrawal_bit);
  if void then c.w_code.(j) <- c.w_code.(j) lor void_bit;
  t.in_flight <- t.in_flight + 1

let fault_draw f slot p = p > 0. && Rng.column_float f.fault_streams slot 1.0 < p

(* A network that was never degraded reads no probability. *)
let lost t slot =
  match t.faults with
  | Some f -> fault_draw f slot (Float.Array.get f.loss slot)
  | None -> false

let duplicated t slot =
  match t.faults with
  | Some f -> fault_draw f slot (Float.Array.get f.duplication slot)
  | None -> false

(* One copy on directed link [slot]: sample a delay and keep
   per-direction FIFO order. A copy to another partition carries the
   sender-side epoch, so a failure while it waits in the outbox voids it
   at the drain. The floor is strict: a copy lands at least 1 ns after the
   link's last one, or one ulp after it where adding 1 ns rounds back
   (from 2^24 s, about 194 days, on), so no two deliveries on a link share
   an instant. When the destination belongs to another partition the
   fully-timestamped message goes to the outbox instead of the local event
   queue; its delivery time is at least link_delay beyond now, which is
   exactly the lookahead the epoch engine runs with, so it can wait for the
   barrier. *)
let send_copy t slot ~src ~dst update =
  if lost t slot then
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
    if owns t dst then put_on_wire t ~at ~slot ~void:false update
    else begin
      let eid = slot lsr 1 in
      t.emit
        {
          remote_eid = eid;
          remote_src = src;
          remote_dst = dst;
          remote_at = at;
          remote_epoch = t.epoch.(eid);
          remote_update = update;
        }
    end
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
    if duplicated t slot then begin
      t.hooks.Hooks.on_duplicate ~time:(Sim.now t.sim) ~src ~dst update;
      send_copy t slot ~src ~dst update
    end
  end

(* A flush or reuse post names its session's directed link; the link's
   source router owns the timer. *)
let session_timer t fire key =
  let slot = Router.session_link key in
  fire t.routers.(slot_src t slot) ~peer:(slot_dst t slot) key

let wheel_timer t ~node_bits key =
  Router.wheel_due t.routers.(Router.wheel_router ~node_bits key) key

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
  let master = Rng.create config.Config.seed in
  let deploy_rng = Rng.split master in
  (* The second split is reserved (nothing draws from it), so every
     router's stream keeps its position in the split chain. *)
  ignore (Rng.split master);
  let hooks = Hooks.create () in
  let damping_deployed = deployment_flags config deploy_rng n in
  let deployed node = Bytes.get_uint8 damping_deployed node <> 0 in
  let params_at node =
    if not (deployed node) then None
    else
      match List.assoc_opt node config.Config.damping_overrides with
      | Some params -> Some params
      | None -> config.Config.damping
  in
  (* One damping value per distinct parameter set, shared by the routers
     that damp with it: the set's validated setting and, in Tick mode, its
     reuse index. Both are pure functions of the parameters (and the
     tick), so sharing them is bit-identical. *)
  let shared = Hashtbl.create 1 in
  let damping_at node =
    match params_at node with
    | None -> None
    | Some params -> (
        match Hashtbl.find_opt shared params with
        | Some damping -> damping
        | None ->
            let index =
              match config.Config.reuse_mode with
              | Config.Exact -> None
              | Config.Tick tick -> Some (Rfd_damping.Reuse_index.create ~tick params)
            in
            let damping = Some (Rfd_damping.Damper.setting params, index) in
            Hashtbl.add shared params damping;
            damping)
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
        routers = [||];
        emit;
        routers_up = Bytes.make n '\001';
        damping_deployed;
        up = Bytes.make m '\001';
        epoch = Array.make m 0;
        floor = Float.Array.make (2 * m) 0.;
        delay_streams = streams config ~salt:delay_salt (2 * m);
        faults = None;
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
  (* The arena's extent: the owned routers, their sessions, and the
     sessions of those that damp. *)
  let rows = ref 0 and sessions = ref 0 and damped = ref 0 in
  for node = 0 to n - 1 do
    if owned.(node) then begin
      let degree = Graph.degree graph node in
      incr rows;
      sessions := !sessions + degree;
      if deployed node then damped := !damped + degree
    end
  done;
  let arena =
    Router.arena ~sim ~paths ~policy ~config ~hooks ~ports ~routers:!rows ~sessions:!sessions
      ~damped:!damped
  in
  t.routers <- Array.make n (Router.vacant arena);
  (* Every partition replays the full master split sequence — one split per
     node, in node order — and lays out only its owned routers, so a
     router's RNG stream is a function of (seed, node id) alone, not of the
     partitioning. A router is laid out with all its sessions: its graph
     neighbours in ascending order, each over the directed link from it,
     which is the order its MRAI jitter is drawn in. *)
  for node = 0 to n - 1 do
    let rng = Rng.split master in
    if owned.(node) then begin
      let sessions =
        Array.map2
          (fun peer eid -> (peer, directed_slot eid ~src:node ~dst:peer))
          (Graph.neighbors graph node) (Graph.incident_edge_ids graph node)
      in
      t.routers.(node) <- Router.create arena ~id:node ~sessions ~damping:(damping_at node) ~rng
    end
  done;
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
  if not (owns t node) then
    invalid_arg (Printf.sprintf "Network.router: node %d owned by another partition" node);
  t.routers.(node)

let num_routers t = Array.length t.routers
let damping_at t node = Bytes.get_uint8 t.damping_deployed node <> 0

let originate t ~node prefix = Router.originate (router t node) prefix
let withdraw t ~node prefix = Router.withdraw_prefix (router t node) prefix

(* Cross-partition delivery: put a message drained from another
   partition's outbox on this partition's wire at a barrier. The timestamp
   was fixed (FIFO floor included) on the sending side. A barrier drains
   only after every partition has run up to its horizon
   ([Par_sim.lockstep]), so this partition's replica of the link state has
   executed the same administrative transitions as the sender's, up to
   the barrier: an epoch that moved since the send means the link went
   down in between, so the row starts void, and a later down transition
   voids it as it does a local row. *)
let deliver_remote t { remote_eid = eid; remote_src = src; remote_dst = dst;
                       remote_at = at; remote_epoch = epoch; remote_update = update } =
  if not (owns t dst) then
    invalid_arg (Printf.sprintf "Network.deliver_remote: node %d owned by another partition" dst);
  put_on_wire t ~at ~slot:(directed_slot eid ~src ~dst) ~void:(epoch <> t.epoch.(eid)) update

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
  router_up t node

let crash_router t node =
  check_node t node;
  if router_up t node then begin
    (* Tear down every operational incident session (both endpoints observe
       peer_down, exactly as for a link failure), then mark the router dead
       so nothing is delivered to or sent from it until restart. *)
    Array.iter
      (fun peer ->
        let eid = edge_id_exn t node peer in
        if operational t eid node peer then down_transition t eid node peer)
      (Graph.neighbors t.graph node);
    Bytes.set_uint8 t.routers_up node 0
  end

let restart_router t node =
  check_node t node;
  if not (router_up t node) then begin
    Bytes.set_uint8 t.routers_up node 1;
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
   degrades one never builds the fault columns. Each stream is a pure
   function of (seed, slot), so seeding them all at the first degradation
   draws exactly what streams seeded at creation would. *)
let set_degradation t ~src ~dst ~loss ~duplication =
  check_probability "loss" loss;
  check_probability "duplication" duplication;
  let slot = slot_exn t ~src ~dst in
  let f =
    match t.faults with
    | Some f -> f
    | None ->
        let slots = Array.length t.wire.w_last in
        let f =
          {
            loss = Float.Array.make slots 0.;
            duplication = Float.Array.make slots 0.;
            fault_streams = streams t.config ~salt:fault_salt slots;
          }
        in
        t.faults <- Some f;
        f
  in
  Float.Array.set f.loss slot loss;
  Float.Array.set f.duplication slot duplication

let degradation t ~src ~dst =
  let slot = slot_exn t ~src ~dst in
  match t.faults with
  | Some f -> (Float.Array.get f.loss slot, Float.Array.get f.duplication slot)
  | None -> (0., 0.)

let in_flight t = t.in_flight

let event_counts t =
  let deliveries = Sim.channel_events t.sim t.deliver_on
  and flushes = Sim.channel_events t.sim t.flush_on
  and reuses = Sim.channel_events t.sim t.reuse_on
  and wheels = Sim.channel_events t.sim t.wheel_on in
  let ops = Sim.events_executed t.sim - deliveries - flushes - reuses - wheels in
  { deliveries; flushes; reuses; wheels; ops }

let fold_routers t ~init ~f =
  let acc = ref init in
  Array.iteri (fun node r -> if owns t node then acc := f !acc r) t.routers;
  !acc

let peak_reuse_timers t =
  fold_routers t ~init:0 ~f:(fun acc r -> acc + Router.peak_reuse_timers r)

let activity t =
  fold_routers t
    ~init:{ Oracle.zero with Oracle.in_flight = t.in_flight }
    ~f:(fun acc r -> Oracle.add acc (Router.activity r))

let rib_fixpoint t prefix =
  fold_routers t ~init:true ~f:(fun fixed r ->
      fixed
      &&
      match (Router.best r prefix, Router.recompute_best r prefix) with
      | None, None -> true
      | Some a, Some b -> Route.equal a b
      | Some _, None | None, Some _ -> false)

let reachable_count t prefix =
  fold_routers t ~init:0 ~f:(fun acc r -> if Router.best r prefix <> None then acc + 1 else acc)
