module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Damper = Rfd_damping.Damper
module History = Rfd_damping.History
module Reuse_index = Rfd_damping.Reuse_index

type desired = D_announce of Route.t | D_withdraw

(* An MRAI-parked update. Allocated when a prefix first parks and dropped
   once neither it nor its flush timer is outstanding, so only the
   prefixes currently behind an MRAI deadline pay for one. *)
type parked = {
  mutable desired : desired; (* meaningful while [f_queued] *)
  mutable rc : Root_cause.t option;
}

type ports = {
  transmit : int -> Update.t -> unit;
  flush_on : Sim.channel;
  reuse_on : Sim.channel;
  wheel_on : Sim.channel;
  node_bits : int;
}

(* Per-prefix session state is one dense slot table indexed by prefix id
   (prefix ids are small and contiguous): a flags byte and unboxed columns,
   all of the same capacity, growing together by doubling from
   [Config.prefix_table_hint]. A read past capacity reads as absent. No
   slot owns a heap block: routes and root causes are shared values, absence
   is a sentinel, and penalties live in float arrays. *)
type peer_state = {
  peer_id : int;
  link : int; (* the directed link to the peer: transport and timer key *)
  mrai_interval : float; (* jittered once per session *)
  mutable flags : Bytes.t; (* [f_*] bits per slot; its length is the capacity *)
  mutable received : Route.t array; (* RIB-In; [no_route] = withdrawn or never received *)
  mutable last_rc : Root_cause.t array; (* root cause of the last update; [no_rc] = none *)
  mutable advertised : Route.t array; (* RIB-Out; [no_route] = withdrawn or never sent *)
  mutable deadline : Float.Array.t; (* per-prefix MRAI deadline; 0. = none *)
  mutable parked : parked array; (* [no_parked] unless [f_queued] or [f_armed] *)
  mutable wheel_slot : int array;
      (* reuse-wheel bucket holding a slot while [f_reuse]; empty unless Tick mode *)
  penalties : Damper.slots option; (* Some iff this router damps *)
  rcn_history : Root_cause.t History.t option;
      (* Some iff this router damps in RCN mode — the only consumer *)
  mutable peer_deadline : float; (* shared MRAI deadline in per-peer mode *)
  mutable up : bool;
}

(* Slot flags. *)
let f_exists = 1 (* a RIB-In entry exists, routed or withdrawn *)
let f_suppressed = 2
let f_reuse = 4 (* a reuse timer (or wheel bucket) is outstanding *)
let f_queued = 8 (* an update is parked behind the MRAI *)
let f_armed = 16 (* a flush timer is armed *)

(* Column sentinels. Neither is ever interned or sent, so they are only
   matched by physical equality. *)
let no_route = Route.make ~prefix:(Prefix.v 0) ~path:As_path.empty
let no_rc = Root_cause.make ~link:(-1, -1) ~status:Root_cause.Link_down ~seq:(-1)
let no_parked = { desired = D_withdraw; rc = None }

(* A flush or reuse post's argument is the session's directed link and the
   prefix id, so the network can hand it to the link's source router; a
   wheel post's is the bucket number and the router id. *)
let prefix_bits = 31
let prefix_mask = (1 lsl prefix_bits) - 1

let session_key ps i =
  if i > prefix_mask then
    invalid_arg (Printf.sprintf "Router: prefix id %d beyond the timer key range" i);
  (ps.link lsl prefix_bits) lor i

let session_link key = key lsr prefix_bits
let wheel_router ~node_bits key = key land ((1 lsl node_bits) - 1)

let rc_of_option = function Some rc -> rc | None -> no_rc
let option_of_rc rc = if rc == no_rc then None else Some rc

(* RFC 2439 §4.8.6 reuse list (Config.Tick mode): suppressed entries are
   bucketed by absolute tick number [k] (firing at [k *. tick]) instead of
   each arming its own simulator timer. One post per occupied slot, one
   table lookup per suppression; a re-charged entry migrates to the slot
   covering its new reuse instant, and a bucket emptied by migration
   retracts its post instead of firing a pointless re-check. Buckets name
   entries by (session, prefix), never by column, because columns are
   reallocated when they grow. *)
type bucket = { mutable b_items : (peer_state * Prefix.t) list (* reverse insertion order *) }

type wheel = {
  w_index : Reuse_index.t;
  w_tick : float;
  w_lambda : float; (* decay rate of the router's damping params *)
  w_slots : (int, bucket) Hashtbl.t;
}

type t = {
  sim : Sim.t;
  id : int;
  policy : Policy.t;
  config : Config.t;
  damping : Rfd_damping.Params.t option;
  setting : Damper.setting option; (* Some iff damping; one decay cache per router *)
  wheel : wheel option; (* Some iff damping is on and reuse_mode is Tick *)
  hooks : Hooks.t;
  ports : ports;
  rng : Rng.t;
  table : Route.table; (* per-network intern table, shared across routers *)
  mutable peers : peer_state array; (* ascending peer_id; dense, no hashing *)
  (* Loc-RIB and origination, router-level columns indexed by prefix id in
     the same way as the session slots. *)
  mutable originated : Bytes.t; (* 1 = originated here; its length is the capacity *)
  mutable best_route : Route.t array; (* [no_route] = no best route *)
  mutable best_from : int array; (* learned-from peer, [from_self] when originated *)
  mutable rc_seq : int;
  (* Reuse-timer accounting, the cost centre the tick wheel optimises:
     simulator events spent on reuse scheduling (fired per-entry timers in
     Exact mode, fired wheel slots in Tick mode) and how many such events
     sit in the simulator heap at once. *)
  mutable timer_events : int;
  mutable timer_live : int;
  mutable timer_peak : int;
}

let from_self = -1

let create ?table ~sim ~id ~policy ~config ~damping ~rng ~hooks ~ports () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Router.create: " ^ msg));
  (match damping with
  | Some params -> (
      match Rfd_damping.Params.validate params with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Router.create: damping params: " ^ msg))
  | None -> ());
  let wheel =
    match (damping, config.Config.reuse_mode) with
    | Some params, Config.Tick tick ->
        Some
          {
            w_index = Reuse_index.create ~tick params;
            w_tick = tick;
            w_lambda = Rfd_damping.Params.lambda params;
            w_slots = Hashtbl.create 16;
          }
    | Some _, Config.Exact | None, _ -> None
  in
  let hint = config.Config.prefix_table_hint in
  {
    sim;
    id;
    policy;
    config;
    damping;
    setting = Option.map (Damper.setting ~cache:(Damper.cache ())) damping;
    wheel;
    hooks;
    ports;
    rng;
    table = (match table with Some tbl -> tbl | None -> Route.create_table ());
    peers = [||];
    originated = Bytes.make hint '\000';
    best_route = Array.make hint no_route;
    best_from = Array.make hint from_self;
    rc_seq = 0;
    timer_events = 0;
    timer_live = 0;
    timer_peak = 0;
  }

let id t = t.id
let damping_params t = t.damping

(* ------------------------------------------------------------------ *)
(* Slot columns                                                        *)

let widen column capacity fill =
  let fresh = Array.make capacity fill in
  Array.blit column 0 fresh 0 (Array.length column);
  fresh

let widen_bytes column capacity =
  let fresh = Bytes.make capacity '\000' in
  Bytes.blit column 0 fresh 0 (Bytes.length column);
  fresh

let capacity ps = Bytes.length ps.flags

(* Make slot [i] addressable: every column of the session grows together,
   to at least double its capacity. *)
let reserve ps i =
  let cap = capacity ps in
  if i >= cap then begin
    let cap' = max (i + 1) (cap * 2) in
    ps.flags <- widen_bytes ps.flags cap';
    ps.received <- widen ps.received cap' no_route;
    ps.last_rc <- widen ps.last_rc cap' no_rc;
    ps.advertised <- widen ps.advertised cap' no_route;
    let deadline = Float.Array.make cap' 0. in
    Float.Array.blit ps.deadline 0 deadline 0 cap;
    ps.deadline <- deadline;
    ps.parked <- widen ps.parked cap' no_parked;
    if Array.length ps.wheel_slot > 0 then ps.wheel_slot <- widen ps.wheel_slot cap' 0;
    Option.iter (fun pen -> Damper.grow pen cap') ps.penalties
  end

let has ps i flag = i < capacity ps && Bytes.get_uint8 ps.flags i land flag <> 0

(* Only called on addressable slots. *)
let set_flag ps i flag = Bytes.set_uint8 ps.flags i (Bytes.get_uint8 ps.flags i lor flag)
let clear_flag ps i flag = Bytes.set_uint8 ps.flags i (Bytes.get_uint8 ps.flags i land lnot flag)
let received ps i = if i < capacity ps then ps.received.(i) else no_route
let advertised ps i = if i < capacity ps then ps.advertised.(i) else no_route
let deadline ps i = if i < capacity ps then Float.Array.get ps.deadline i else 0.

(* The same for the router's own columns. *)
let loc_capacity t = Bytes.length t.originated

let loc_reserve t i =
  let cap = loc_capacity t in
  if i >= cap then begin
    let cap' = max (i + 1) (cap * 2) in
    t.originated <- widen_bytes t.originated cap';
    t.best_route <- widen t.best_route cap' no_route;
    t.best_from <- widen t.best_from cap' from_self
  end

let is_originated t i = i < loc_capacity t && Bytes.get_uint8 t.originated i <> 0
let best_route t i = if i < loc_capacity t then t.best_route.(i) else no_route

(* Peer sessions live in a dense array sorted by peer id: lookups are an
   O(log degree) binary search and the decision process iterates the array
   directly (ascending, as the id tie-break requires) — no hashing, no
   per-peer boxing beyond the session record itself. *)
let find_peer t peer =
  let peers = t.peers in
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let ps = peers.(mid) in
      if ps.peer_id = peer then Some ps
      else if ps.peer_id < peer then search (mid + 1) hi
      else search lo (mid - 1)
    end
  in
  search 0 (Array.length peers - 1)

let connect t ~peer ~link =
  if peer = t.id then invalid_arg "Router.connect: cannot peer with self";
  if peer < 0 then invalid_arg (Printf.sprintf "Router.connect: negative peer id %d" peer);
  if link < 0 || link > Sim.max_arg lsr prefix_bits then
    invalid_arg (Printf.sprintf "Router.connect: link %d outside the timer key range" link);
  if find_peer t peer <> None then
    invalid_arg (Printf.sprintf "Router.connect: duplicate peer %d" peer);
  let lo, hi = t.config.Config.mrai_jitter in
  let hint = t.config.Config.prefix_table_hint in
  let ps =
    {
      peer_id = peer;
      link;
      mrai_interval = t.config.Config.mrai *. Rng.uniform t.rng ~lo ~hi;
      flags = Bytes.make hint '\000';
      received = Array.make hint no_route;
      last_rc = Array.make hint no_rc;
      advertised = Array.make hint no_route;
      deadline = Float.Array.make hint 0.;
      parked = Array.make hint no_parked;
      wheel_slot = (if t.wheel <> None then Array.make hint 0 else [||]);
      penalties = Option.map (fun setting -> Damper.slots setting ~capacity:hint) t.setting;
      rcn_history =
        (* Only RCN-mode damping routers consult the history; everywhere
           else the (capacity-sized) table would be dead weight per session. *)
        (if t.config.Config.damping_mode = Config.Rcn && t.damping <> None then
           Some (History.create ~capacity:t.config.Config.rcn_history ())
         else None);
      peer_deadline = 0.;
      up = true;
    }
  in
  let n = Array.length t.peers in
  let pos = ref n in
  (* Insertion point in the sorted array. *)
  for i = n - 1 downto 0 do
    if t.peers.(i).peer_id > peer then pos := i
  done;
  let peers = Array.make (n + 1) ps in
  Array.blit t.peers 0 peers 0 !pos;
  Array.blit t.peers !pos peers (!pos + 1) (n - !pos);
  t.peers <- peers

let peer_ids t = Array.fold_right (fun ps acc -> ps.peer_id :: acc) t.peers []

let peer_state t peer =
  match find_peer t peer with
  | Some ps -> ps
  | None -> invalid_arg (Printf.sprintf "Router %d: unknown peer %d" t.id peer)

let fresh_rc t ~status = (
  t.rc_seq <- t.rc_seq + 1;
  Root_cause.origin_event ~node:t.id ~status ~seq:t.rc_seq)

let fresh_link_rc t ~peer ~status =
  t.rc_seq <- t.rc_seq + 1;
  Root_cause.make ~link:(t.id, peer) ~status ~seq:t.rc_seq

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)

let self_route t prefix = Route.make_interned t.table ~prefix ~path:As_path.empty

(* (preference, path length, peer id) — bigger pref wins, then shorter
   path, then lower peer id. Ascending peer iteration makes the id
   tie-break implicit via strict improvement. *)
let better_candidate ~pref_a ~len_a ~peer_a ~pref_b ~len_b ~peer_b =
  pref_a > pref_b
  || (pref_a = pref_b && (len_a < len_b || (len_a = len_b && peer_a < peer_b)))

(* The winning session's index in [t.peers], or [no_best] when nothing is
   usable. Self-originated prefixes are the caller's case. *)
let no_best = -1

let best_session t i =
  let best = ref no_best and best_pref = ref 0 and best_len = ref 0 in
  let peers = t.peers in
  for k = 0 to Array.length peers - 1 do
    let ps = peers.(k) in
    if ps.up then begin
      let route = received ps i in
      if route != no_route && not (has ps i f_suppressed) then begin
        let peer = ps.peer_id in
        let pref = Policy.import_preference t.policy ~me:t.id ~from_peer:peer ~route in
        let len = Route.path_length route in
        if
          !best = no_best
          || better_candidate ~pref_a:pref ~len_a:len ~peer_a:peer ~pref_b:!best_pref
               ~len_b:!best_len ~peer_b:peers.(!best).peer_id
        then begin
          best := k;
          best_pref := pref;
          best_len := len
        end
      end
    end
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Output path: RIB-Out diffing + MRAI                                 *)

let dispatch t ps msg =
  t.hooks.Hooks.on_send ~time:(Sim.now t.sim) ~src:t.id ~dst:ps.peer_id msg;
  t.ports.transmit ps.link msg

let mrai_hook t ps prefix action =
  t.hooks.Hooks.on_mrai ~time:(Sim.now t.sim) ~router:t.id ~peer:ps.peer_id ~prefix action

(* Clear [flag] (f_queued or f_armed); the parked record goes once neither
   is left. *)
let unpark ps i flag =
  clear_flag ps i flag;
  if not (has ps i (f_queued lor f_armed)) then ps.parked.(i) <- no_parked

let drop_pending t ps prefix action =
  let i = Prefix.to_int prefix in
  if has ps i f_queued then begin
    unpark ps i f_queued;
    mrai_hook t ps prefix action
  end

let send_now t ps prefix desired rc =
  let now = Sim.now t.sim in
  drop_pending t ps prefix Hooks.Mrai_superseded;
  let i = Prefix.to_int prefix in
  match desired with
  | D_withdraw ->
      if i < capacity ps then ps.advertised.(i) <- no_route;
      dispatch t ps (Update.withdraw ?rc prefix)
      (* withdrawals do not restart the MRAI *)
  | D_announce route ->
      let prev = advertised ps i in
      let rel_pref =
        if prev == no_route then None
        else begin
          let c = Int.compare (Route.path_length route) (Route.path_length prev) in
          Some
            (if c < 0 then Update.Better
             else if c > 0 then Update.Worse
             else Update.Same_pref)
        end
      in
      reserve ps i;
      ps.advertised.(i) <- route;
      dispatch t ps (Update.announce ?rc ?rel_pref route);
      if t.config.Config.mrai > 0. then begin
        let deadline = now +. ps.mrai_interval in
        if t.config.Config.mrai_per_peer then ps.peer_deadline <- deadline
        else Float.Array.set ps.deadline i deadline
      end

(* [emit] reconciles the desired advertisement for (peer, prefix) with what
   was last sent, honouring the MRAI. Returns 1 when a message was sent or
   queued, 0 when the peer is already up to date. *)
let emit t ps prefix desired rc =
  let i = Prefix.to_int prefix in
  let sent = advertised ps i in
  let same =
    match desired with
    | D_withdraw -> sent == no_route
    | D_announce r -> sent != no_route && Route.equal r sent
  in
  if same then begin
    (* A pending older update is superseded by "nothing to do". *)
    drop_pending t ps prefix Hooks.Mrai_superseded;
    0
  end
  else begin
    let now = Sim.now t.sim in
    let deadline = if t.config.Config.mrai_per_peer then ps.peer_deadline else deadline ps i in
    let rate_limited =
      match desired with
      | D_withdraw -> t.config.Config.withdrawal_rate_limiting
      | D_announce _ -> true
    in
    if t.config.Config.mrai = 0. || (not rate_limited) || now >= deadline then begin
      send_now t ps prefix desired rc;
      1
    end
    else begin
      reserve ps i;
      let fresh = not (has ps i f_queued) in
      let p = ps.parked.(i) in
      if p == no_parked then ps.parked.(i) <- { desired; rc }
      else begin
        p.desired <- desired;
        p.rc <- rc
      end;
      set_flag ps i f_queued;
      if fresh then mrai_hook t ps prefix Hooks.Mrai_queued;
      if not (has ps i f_armed) then begin
        Sim.post t.sim t.ports.flush_on ~time:deadline (session_key ps i);
        set_flag ps i f_armed;
        mrai_hook t ps prefix Hooks.Flush_armed
      end;
      1
    end
  end

let flush t ps prefix =
  let i = Prefix.to_int prefix in
  let p = ps.parked.(i) in
  unpark ps i f_armed;
  mrai_hook t ps prefix Hooks.Flush_fired;
  if ps.up && has ps i f_queued then begin
    unpark ps i f_queued;
    mrai_hook t ps prefix Hooks.Mrai_sent;
    ignore (emit t ps prefix p.desired p.rc)
  end

let export t ~learned_from ~to_peer route =
  if
    Policy.export_allowed t.policy ~me:t.id ~learned_from ~to_peer ~route
    && not (As_path.contains (Route.path route) to_peer)
  then D_announce (Route.prepend_interned t.table t.id route)
  else D_withdraw

let learned_from t i =
  let from = t.best_from.(i) in
  if from = from_self then None else Some from

(* Run the decision process for [prefix]; on a best-path change, reconcile
   every peer. Returns the number of updates sent or queued. *)
let decision t prefix ~trigger_rc =
  let i = Prefix.to_int prefix in
  let route, from =
    if is_originated t i then (self_route t prefix, from_self)
    else
      let k = best_session t i in
      if k = no_best then (no_route, from_self)
      else (t.peers.(k).received.(i), t.peers.(k).peer_id)
  in
  let old = best_route t i in
  let unchanged =
    if old == no_route then route == no_route
    else route != no_route && t.best_from.(i) = from && Route.equal old route
  in
  if unchanged then 0
  else begin
    loc_reserve t i;
    t.best_route.(i) <- route;
    t.best_from.(i) <- from;
    let reachable = route != no_route in
    t.hooks.Hooks.on_best_change ~time:(Sim.now t.sim) ~router:t.id ~prefix
      ~best:(if reachable then Some route else None);
    let learned_from = learned_from t i in
    let emitted = ref 0 in
    Array.iter
      (fun ps ->
        if ps.up then begin
          let desired =
            if reachable then export t ~learned_from ~to_peer:ps.peer_id route else D_withdraw
          in
          emitted := !emitted + emit t ps prefix desired trigger_rc
        end)
      t.peers;
    !emitted
  end

(* ------------------------------------------------------------------ *)
(* Damping                                                             *)

let timer_armed t =
  t.timer_live <- t.timer_live + 1;
  if t.timer_live > t.timer_peak then t.timer_peak <- t.timer_live

let timer_fired t =
  t.timer_events <- t.timer_events + 1;
  t.timer_live <- t.timer_live - 1

(* A suppressed slot's timer came due: release it if its penalty has
   decayed, else report when to check again. *)
let try_release t ps prefix pen ~now =
  let i = Prefix.to_int prefix in
  match Damper.slot_try_reuse pen i ~now with
  | `Not_yet _ as later -> later
  | `Reused ->
      clear_flag ps i f_suppressed;
      let emitted = decision t prefix ~trigger_rc:(option_of_rc ps.last_rc.(i)) in
      t.hooks.Hooks.on_reuse ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
        ~noisy:(emitted > 0);
      `Reused

let reuse_fire t ps prefix =
  timer_fired t;
  let i = Prefix.to_int prefix in
  clear_flag ps i f_reuse;
  match ps.penalties with
  | Some pen when has ps i f_suppressed -> (
      let now = Sim.now t.sim in
      match try_release t ps prefix pen ~now with
      | `Not_yet time ->
          set_flag ps i f_reuse;
          timer_armed t;
          (* From 2^34 s on, [time +. 1e-6] can round to [now]; re-arming
             there would fire at one instant forever. *)
          let time = Float.max (time +. 1e-6) (Float.succ now) in
          Sim.post t.sim t.ports.reuse_on ~time (session_key ps i)
      | `Reused -> ())
  | Some _ | None -> ()

(* ---- Tick-mode reuse wheel ---- *)

let wheel_slot_time w slot = float_of_int slot *. w.w_tick

let wheel_key t slot =
  if slot > Sim.max_arg lsr t.ports.node_bits then
    invalid_arg (Printf.sprintf "Router %d: reuse wheel slot %d beyond the timer key range" t.id slot);
  (slot lsl t.ports.node_bits) lor t.id

(* First grid slot at or after [time]. *)
let wheel_slot_after w time = int_of_float (Float.ceil (time /. w.w_tick))

(* The slot whose boundary is the first grid point at or after the exact
   reuse instant. Decaying the penalty forward to the next boundary before
   consulting the index table keeps the quantisation error inside one tick
   regardless of where [now] falls between boundaries. *)
let wheel_slot_for w pen i ~now =
  let next = wheel_slot_after w now in
  let dt = wheel_slot_time w next -. now in
  let penalty = Damper.slot_penalty pen i ~now in
  let penalty = if dt > 0. then penalty *. exp (-.w.w_lambda *. dt) else penalty in
  next + Reuse_index.ticks_to_reuse w.w_index ~penalty

let wheel_park t w ps prefix ~slot =
  (match Hashtbl.find_opt w.w_slots slot with
  | Some b -> b.b_items <- (ps, prefix) :: b.b_items
  | None ->
      timer_armed t;
      let time = Float.max (wheel_slot_time w slot) (Sim.now t.sim) in
      Sim.post t.sim t.ports.wheel_on ~time (wheel_key t slot);
      Hashtbl.replace w.w_slots slot { b_items = [ (ps, prefix) ] });
  let i = Prefix.to_int prefix in
  set_flag ps i f_reuse;
  ps.wheel_slot.(i) <- slot

let wheel_fire t w slot =
  match Hashtbl.find_opt w.w_slots slot with
  | None -> ()
  | Some bucket ->
      timer_fired t;
      Hashtbl.remove w.w_slots slot;
      let now = Sim.now t.sim in
      List.iter
        (fun (ps, prefix) ->
          let i = Prefix.to_int prefix in
          clear_flag ps i f_reuse;
          match ps.penalties with
          | Some pen when has ps i f_suppressed -> (
              match try_release t ps prefix pen ~now with
              | `Not_yet time ->
                  (* Residual quantisation slack (the exact instant fell just
                     past this boundary): move to the slot covering the real
                     reuse time, strictly after this one so the wheel always
                     drains. *)
                  wheel_park t w ps prefix ~slot:(max (slot + 1) (wheel_slot_after w time))
              | `Reused -> ())
          | Some _ | None -> ())
        (List.rev bucket.b_items)

(* A fresh charge on a queued entry pushed its reuse instant out: migrate
   the entry to the slot covering the new instant (RFC 2439's "move to
   another reuse list"). A bucket emptied by migration retracts its post
   rather than firing a pointless re-check; if the slot is armed again
   before that post's time, the new post is the later one, so the
   retraction still names the stale post. *)
let wheel_postpone t w ps prefix pen =
  let i = Prefix.to_int prefix in
  let slot = wheel_slot_for w pen i ~now:(Sim.now t.sim) in
  let current = ps.wheel_slot.(i) in
  if slot <> current then begin
    (match Hashtbl.find_opt w.w_slots current with
    | Some b ->
        b.b_items <- List.filter (fun (ps', p) -> not (ps' == ps && p = prefix)) b.b_items;
        if b.b_items = [] then begin
          Sim.retract t.sim t.ports.wheel_on (wheel_key t current);
          Hashtbl.remove w.w_slots current;
          t.timer_live <- t.timer_live - 1
        end
    | None -> ());
    wheel_park t w ps prefix ~slot
  end

let schedule_reuse t ps prefix pen =
  let i = Prefix.to_int prefix in
  if not (has ps i f_reuse) then begin
    let now = Sim.now t.sim in
    match t.wheel with
    | Some w ->
        let slot = wheel_slot_for w pen i ~now in
        wheel_park t w ps prefix ~slot;
        t.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
          ~at:(wheel_slot_time w slot)
    | None ->
        set_flag ps i f_reuse;
        timer_armed t;
        let time = Damper.slot_reuse_time pen i ~now +. 1e-6 in
        Sim.post t.sim t.ports.reuse_on ~time (session_key ps i);
        t.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:ps.peer_id ~prefix ~at:time
  end

(* Charge a damping event to an existing entry. [count] is false when the
   RCN or selective filter decided this update must not charge the
   penalty. *)
let apply_damping t ps prefix event ~count =
  match ps.penalties with
  | Some pen when count -> (
      let i = Prefix.to_int prefix in
      let now = Sim.now t.sim in
      let transition =
        Damper.slot_record pen i ~now ~suppressed:(has ps i f_suppressed) event
      in
      if transition = `Suppressed then set_flag ps i f_suppressed;
      t.hooks.Hooks.on_penalty ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
        ~penalty:(Damper.slot_penalty pen i ~now);
      match transition with
      | `Suppressed ->
          t.hooks.Hooks.on_suppress ~time:now ~router:t.id ~peer:ps.peer_id ~prefix;
          schedule_reuse t ps prefix pen
      | `Ok -> (
          (* Charging an already-suppressed entry postpones its reuse. In
             Exact mode the outstanding timer re-checks and re-schedules
             itself when it fires; in Tick mode the entry migrates to its
             new slot immediately. *)
          match t.wheel with
          | Some w when has ps i f_reuse && has ps i f_suppressed ->
              wheel_postpone t w ps prefix pen
          | Some _ | None -> ()))
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Timer posts, handed back by the network's channels                  *)

let session_prefix key = Prefix.v (key land prefix_mask)
let flush_due t ~peer key = flush t (peer_state t peer) (session_prefix key)
let reuse_due t ~peer key = reuse_fire t (peer_state t peer) (session_prefix key)

let wheel_due t key =
  match t.wheel with
  | Some w -> wheel_fire t w (key lsr t.ports.node_bits)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Input path                                                          *)

(* In RCN mode every received update runs through the per-peer root-cause
   history; the result decides whether the damping penalty is charged. *)
let rc_filter ps rc =
  match ps.rcn_history with
  | Some history -> (
      (* The history exists iff this router damps in RCN mode. *)
      match rc with
      | Some rc -> History.observe history rc = `New
      | None -> true)
  | None -> true

(* In RCN mode the penalty models the root-cause flap itself, not the local
   update type ("each route flap — not each update — increases the damping
   penalty"): a down event charges the withdrawal penalty, an up event the
   re-announcement penalty, whatever shape the locally received update
   takes. *)
let damping_event t ~rc ~local =
  match (t.config.Config.damping_mode, rc) with
  | Config.Rcn, Some { Root_cause.status = Root_cause.Link_down; _ } -> Damper.Withdrawal
  | Config.Rcn, Some { Root_cause.status = Root_cause.Link_up; _ } -> Damper.Reannouncement
  | (Config.Rcn | Config.Plain | Config.Selective), _ -> local

let handle_withdraw t ps prefix ~rc ~count =
  let i = Prefix.to_int prefix in
  if received ps i != no_route then begin
    ps.received.(i) <- no_route;
    ps.last_rc.(i) <- rc_of_option rc;
    apply_damping t ps prefix (damping_event t ~rc ~local:Damper.Withdrawal) ~count;
    ignore (decision t prefix ~trigger_rc:rc)
  end
(* else a spurious withdrawal: no state change, no penalty (RFC 2439). *)

let handle_announce t ps route ~rc ~rel_pref ~count =
  let prefix = Route.prefix route in
  let i = Prefix.to_int prefix in
  if not (has ps i f_exists) then begin
    (* First announcement: the entry is created, nothing is charged. *)
    reserve ps i;
    set_flag ps i f_exists;
    ps.received.(i) <- route;
    ps.last_rc.(i) <- rc_of_option rc;
    ignore (decision t prefix ~trigger_rc:rc)
  end
  else begin
    let prev = ps.received.(i) in
    if prev == no_route || not (Route.equal prev route) then begin
      let event = if prev == no_route then Damper.Reannouncement else Damper.Attribute_change in
      ps.received.(i) <- route;
      ps.last_rc.(i) <- rc_of_option rc;
      let count =
        count
        &&
        match (t.config.Config.damping_mode, event, rel_pref) with
        | Config.Selective, Damper.Attribute_change, Some Update.Worse ->
            (* The sender flagged this as a monotonically worse exploration
               step; the selective-damping baseline skips the penalty. *)
            false
        | _ -> true
      in
      apply_damping t ps prefix (damping_event t ~rc ~local:event) ~count;
      ignore (decision t prefix ~trigger_rc:rc)
    end
    (* else a duplicate: nothing to do *)
  end

let receive t ~from_peer update =
  let ps = peer_state t from_peer in
  if ps.up then begin
    let rc = Update.rc update in
    let count = rc_filter ps rc in
    match update with
    | Update.Withdraw { prefix; rc } -> handle_withdraw t ps prefix ~rc ~count
    | Update.Announce { route; rc; rel_pref } ->
        if As_path.contains (Route.path route) t.id then
          (* Receiver-side loop detection: treat as withdrawal. *)
          handle_withdraw t ps (Route.prefix route) ~rc ~count
        else handle_announce t ps route ~rc ~rel_pref ~count
  end

(* ------------------------------------------------------------------ *)
(* Local origination                                                   *)

let originates t prefix = is_originated t (Prefix.to_int prefix)

let originate t prefix =
  if not (originates t prefix) then begin
    let i = Prefix.to_int prefix in
    loc_reserve t i;
    Bytes.set_uint8 t.originated i 1;
    let rc = fresh_rc t ~status:Root_cause.Link_up in
    ignore (decision t prefix ~trigger_rc:(Some rc))
  end

let withdraw_prefix t prefix =
  if originates t prefix then begin
    Bytes.set_uint8 t.originated (Prefix.to_int prefix) 0;
    let rc = fresh_rc t ~status:Root_cause.Link_down in
    ignore (decision t prefix ~trigger_rc:(Some rc))
  end

(* ------------------------------------------------------------------ *)
(* Session flaps                                                       *)

let peer_down t ~peer =
  let ps = peer_state t peer in
  if ps.up then begin
    ps.up <- false;
    (* Tear down the whole output path for the session: parked updates are
       dropped, their flush posts retracted (a stale flush firing at an
       obsolete deadline would flush post-restore updates early, violating
       the MRAI), and both MRAI deadline forms reset so the restored
       session starts with a fresh rate-limit budget. A flush armed after
       the restore falls due no earlier than the retracted one (deadlines
       only move forward), so the retraction always names the stale post.
       Slots are visited in ascending prefix order. *)
    let cap = capacity ps in
    for i = 0 to cap - 1 do
      drop_pending t ps (Prefix.v i) Hooks.Mrai_cancelled
    done;
    for i = 0 to cap - 1 do
      if has ps i f_armed then begin
        Sim.retract t.sim t.ports.flush_on (session_key ps i);
        unpark ps i f_armed;
        mrai_hook t ps (Prefix.v i) Hooks.Flush_cancelled
      end
    done;
    Array.fill ps.advertised 0 cap no_route;
    Float.Array.fill ps.deadline 0 cap 0.;
    ps.peer_deadline <- 0.;
    let rc = fresh_link_rc t ~peer ~status:Root_cause.Link_down in
    let affected = ref [] in
    for i = cap - 1 downto 0 do
      if ps.received.(i) != no_route then affected := i :: !affected
    done;
    List.iter
      (fun i ->
        let prefix = Prefix.v i in
        ps.received.(i) <- no_route;
        ps.last_rc.(i) <- rc;
        apply_damping t ps prefix Damper.Withdrawal ~count:true;
        ignore (decision t prefix ~trigger_rc:(Some rc)))
      !affected
  end

let peer_up t ~peer =
  let ps = peer_state t peer in
  if not ps.up then begin
    ps.up <- true;
    let rc = Some (fresh_link_rc t ~peer ~status:Root_cause.Link_up) in
    (* Re-advertise the full table to the restored session, in ascending
       prefix order. *)
    for i = 0 to loc_capacity t - 1 do
      let route = t.best_route.(i) in
      if route != no_route then
        ignore
          (emit t ps (Prefix.v i)
             (export t ~learned_from:(learned_from t i) ~to_peer:peer route)
             rc)
    done
  end

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let best t prefix =
  let route = best_route t (Prefix.to_int prefix) in
  if route == no_route then None else Some route

let session_up t ~peer = (peer_state t peer).up

let best_peer t prefix =
  let i = Prefix.to_int prefix in
  if best_route t i == no_route then None else learned_from t i

let rib_in_route t ~peer prefix =
  let route = received (peer_state t peer) (Prefix.to_int prefix) in
  if route == no_route then None else Some route

let is_suppressed t ~peer prefix = has (peer_state t peer) (Prefix.to_int prefix) f_suppressed

let penalty t ~peer prefix =
  let ps = peer_state t peer in
  let i = Prefix.to_int prefix in
  match ps.penalties with
  | Some pen when has ps i f_exists -> Damper.slot_penalty pen i ~now:(Sim.now t.sim)
  | Some _ | None -> 0.

let reuse_timer_events t = t.timer_events
let peak_reuse_timers t = t.timer_peak

let count_slots ps flag =
  let n = ref 0 in
  for i = 0 to capacity ps - 1 do
    if has ps i flag then incr n
  done;
  !n

let suppressed_count t = Array.fold_left (fun acc ps -> acc + count_slots ps f_suppressed) 0 t.peers

let known_prefixes t =
  let known i =
    best_route t i != no_route
    || is_originated t i
    || Array.exists (fun ps -> has ps i f_exists) t.peers
  in
  let top = Array.fold_left (fun acc ps -> max acc (capacity ps)) (loc_capacity t) t.peers in
  let acc = ref [] in
  for i = top - 1 downto 0 do
    if known i then acc := Prefix.v i :: !acc
  done;
  !acc

let recompute_best t prefix =
  let i = Prefix.to_int prefix in
  if is_originated t i then Some (self_route t prefix)
  else
    let k = best_session t i in
    if k = no_best then None else Some t.peers.(k).received.(i)

(* ------------------------------------------------------------------ *)
(* Convergence-oracle introspection                                    *)

let peer_state_activity ps =
  {
    Oracle.in_flight = 0;
    mrai_pending = count_slots ps f_queued;
    scheduled_flushes = count_slots ps f_armed;
    reuse_timers = count_slots ps f_reuse;
  }

let peer_activity t ~peer = peer_state_activity (peer_state t peer)

let activity t =
  Array.fold_left (fun acc ps -> Oracle.add acc (peer_state_activity ps)) Oracle.zero t.peers
