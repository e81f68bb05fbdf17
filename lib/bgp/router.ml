module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Damper = Rfd_damping.Damper
module History = Rfd_damping.History
module Reuse_index = Rfd_damping.Reuse_index

type ports = {
  transmit : int -> Update.t -> unit;
  flush_on : Sim.channel;
  reuse_on : Sim.channel;
  wheel_on : Sim.channel;
  node_bits : int;
}

(* Slot flags. *)
let f_exists = 1 (* a RIB-In entry exists, routed or withdrawn *)
let f_suppressed = 2
let f_reuse = 4 (* a reuse timer (or wheel bucket) is outstanding *)
let f_queued = 8 (* an update is parked behind the MRAI *)
let f_armed = 16 (* a flush timer is armed *)

(* The route columns' "none", and [export]'s withdrawal. It is a one-hop
   path, never interned or sent, so it is only matched by physical
   equality; the empty path cannot serve, since it is a self-originated
   best route's. *)
let no_path = As_path.prepend (-1) As_path.empty

let from_self = -1

(* A flush or reuse post's argument is the session's directed link and the
   prefix id, so the network can hand it to the link's source router; a
   wheel post's is the bucket number and the router id. *)
let prefix_bits = 31
let prefix_mask = (1 lsl prefix_bits) - 1
let session_link key = key lsr prefix_bits
let wheel_router ~node_bits key = key land ((1 lsl node_bits) - 1)

(* RFC 2439 §4.8.6 reuse list (Config.Tick mode): suppressed entries are
   bucketed by absolute tick number [k] (firing at [k *. tick]) instead of
   each arming its own simulator timer. One post per occupied bucket, one
   table lookup per suppression; a re-charged entry migrates to the bucket
   covering its new reuse instant, and a bucket emptied by migration
   retracts its post instead of firing a pointless re-check. The arena
   keeps every router's buckets in one table, keyed by the bucket's post
   argument, which names the router. A bucket names an entry by its slot
   index, which survives the columns growing. *)
type bucket = { mutable b_items : int list (* reverse insertion order *) }

type damping = Damper.setting * Reuse_index.t option

(* Every router of a network is a row of one arena, which [Network.create]
   lays out once, router by router in node order, through [create]; no
   router owns an array. Router [r]'s session
   [k] is cell [base r + k] of the session columns, so a router's
   sessions are a contiguous run in ascending peer order, fixed at
   creation. Per-prefix session state is the slot columns, prefix-major
   over all [sessions] of the arena: session [k]'s slot for prefix id [i]
   is [i * sessions + base r + k], so the decision process scans one
   contiguous run and growing past the capacity is one widen for the
   whole network. The penalty and wheel-bucket columns are laid out the
   same way over the [damped] sessions, those of routers that damp, from
   a second base; the Loc-RIB columns over the [rows] routers, at
   [i * rows + row r]. A read past capacity reads as absent. No slot owns
   a heap block: paths and root causes are shared values, absence is a
   sentinel, and penalties live in float arrays. A slot's prefix is its
   index, so the route columns hold the route's interned path alone. A
   parked update is its flag and its root cause: what it announces is
   derived when its flush fires. *)
type arena = {
  sim : Sim.t;
  policy : Policy.t;
  config : Config.t;
  hooks : Hooks.t;
  ports : ports;
  paths : As_path.table; (* the network's path intern table *)
  rows : int;
  sessions : int;
  damped : int;
  mutable next_row : int;
  mutable next_session : int;
  mutable next_damped : int;
  (* Session columns: [sessions] cells. *)
  peer_id : int array;
  link : int array; (* the directed link to the peer: transport and timer key *)
  mrai_interval : Float.Array.t; (* jittered once per session *)
  peer_deadline : Float.Array.t; (* shared MRAI deadline in per-peer mode *)
  up : Bytes.t;
  histories : Root_cause.t History.t array;
      (* by damped session, in RCN mode only, the histories' one consumer *)
  (* Row columns: [rows] cells. *)
  rc_seq : int array;
  (* Reuse-timer heap residency, the cost centre the tick wheel optimises:
     how many reuse posts (per-entry timers in Exact mode, occupied wheel
     buckets in Tick mode) a router has in the simulator heap now and at
     most. *)
  timer_live : int array;
  timer_peak : int array;
  (* One prefix capacity: prefix ids with a slot and a Loc-RIB entry. *)
  mutable capacity : int;
  (* Slot columns: [capacity * sessions] slots. *)
  mutable flags : Bytes.t; (* [f_*] bits per slot *)
  mutable received : As_path.t array; (* RIB-In; [no_path] = withdrawn or never received *)
  mutable last_rc : Root_cause.t option array; (* root cause of the last update, as received *)
  mutable advertised : As_path.t array; (* RIB-Out; [no_path] = withdrawn or never sent *)
  mutable deadline : Float.Array.t; (* per-prefix MRAI deadline; 0. = none *)
  mutable parked_rc : Root_cause.t option array;
      (* a parked update's root cause; [None] unless [f_queued] *)
  (* Damped slot columns: [capacity * damped] slots. *)
  penalties : Damper.slots;
  mutable wheel_slot : int array;
      (* reuse-wheel bucket holding a slot while [f_reuse]; empty unless Tick mode *)
  wheel : (int, bucket) Hashtbl.t; (* occupied buckets, by post argument *)
  (* Loc-RIB and origination: [capacity * rows] entries. *)
  mutable originated : Bytes.t; (* 1 = originated here *)
  mutable best_route : As_path.t array; (* [no_path] = no best route *)
  mutable best_from : int array; (* learned-from peer, [from_self] when originated *)
}

(* A router: its place in the arena. [pbase] is its first damped session,
   -1 when it does not damp. *)
type t = {
  arena : arena;
  id : int;
  row : int;
  base : int;
  degree : int;
  pbase : int;
  damping : damping option; (* as given: the network shares one per parameter set *)
}

let arena ~sim ~paths ~policy ~config ~hooks ~ports ~routers ~sessions ~damped =
  let hint = config.Config.prefix_table_hint in
  let n = hint * sessions and p = hint * damped and l = hint * routers in
  {
    sim;
    policy;
    config;
    hooks;
    ports;
    paths;
    rows = routers;
    sessions;
    damped;
    next_row = 0;
    next_session = 0;
    next_damped = 0;
    peer_id = Array.make sessions 0;
    link = Array.make sessions 0;
    mrai_interval = Float.Array.make sessions 0.;
    peer_deadline = Float.Array.make sessions 0.;
    up = Bytes.make sessions '\001';
    histories =
      (if config.Config.damping_mode = Config.Rcn then
         Array.init damped (fun _ -> History.create ~capacity:config.Config.rcn_history ())
       else [||]);
    rc_seq = Array.make routers 0;
    timer_live = Array.make routers 0;
    timer_peak = Array.make routers 0;
    capacity = hint;
    flags = Bytes.make n '\000';
    received = Array.make n no_path;
    last_rc = Array.make n None;
    advertised = Array.make n no_path;
    deadline = Float.Array.make n 0.;
    parked_rc = Array.make n None;
    penalties = Damper.slots ~capacity:p;
    wheel_slot =
      (match config.Config.reuse_mode with
      | Config.Tick _ -> Array.make p 0
      | Config.Exact -> [||]);
    wheel = Hashtbl.create 16;
    originated = Bytes.make l '\000';
    best_route = Array.make l no_path;
    best_from = Array.make l from_self;
  }

(* Each session's link must fit a timer post beside the prefix bits, and
   peers ascend without repeats, so a session's rank is its index. *)
let check_sessions ~id sessions =
  let prev = ref (-1) in
  Array.iter
    (fun (peer, link) ->
      if peer = id then invalid_arg "Router.create: cannot peer with self";
      if peer < 0 then invalid_arg (Printf.sprintf "Router.create: negative peer id %d" peer);
      if link < 0 || link > Sim.max_arg lsr prefix_bits then
        invalid_arg (Printf.sprintf "Router.create: link %d outside the timer key range" link);
      if peer = !prev then invalid_arg (Printf.sprintf "Router.create: duplicate peer %d" peer);
      if peer < !prev then
        invalid_arg
          (Printf.sprintf "Router.create: peer %d after peer %d: sessions must ascend" peer !prev);
      prev := peer)
    sessions

let create a ~id ~sessions ~damping ~rng =
  check_sessions ~id sessions;
  let degree = Array.length sessions in
  let damps = Option.is_some damping in
  if
    a.next_row >= a.rows
    || a.next_session + degree > a.sessions
    || (damps && a.next_damped + degree > a.damped)
  then invalid_arg (Printf.sprintf "Router.create: no room left in the arena for router %d" id);
  (match (damping, a.config.Config.reuse_mode) with
  | Some (_, Some _), Config.Exact ->
      invalid_arg "Router.create: a reuse index needs a Tick-mode config"
  | _ -> ());
  let row = a.next_row and base = a.next_session in
  let pbase = if damps then a.next_damped else -1 in
  a.next_row <- row + 1;
  a.next_session <- base + degree;
  if damps then a.next_damped <- pbase + degree;
  (* One MRAI jitter draw per session, in rank order. *)
  let lo, hi = a.config.Config.mrai_jitter in
  Array.iteri
    (fun k (peer, link) ->
      a.peer_id.(base + k) <- peer;
      a.link.(base + k) <- link;
      Float.Array.set a.mrai_interval (base + k) (a.config.Config.mrai *. Rng.uniform rng ~lo ~hi))
    sessions;
  { arena = a; id; row; base; degree; pbase; damping }

let vacant a = { arena = a; id = -1; row = -1; base = 0; degree = 0; pbase = -1; damping = None }
let id t = t.id
let damping_params t = Option.map (fun (setting, _) -> Damper.params setting) t.damping

(* ------------------------------------------------------------------ *)
(* Columns                                                             *)

(* [resize column n fill] copies the first [min n (length column)]
   entries into a fresh column of [n], filling the rest. *)
let resize column n fill =
  let fresh = Array.make n fill in
  Array.blit column 0 fresh 0 (min n (Array.length column));
  fresh

let resize_floats column n =
  let fresh = Float.Array.make n 0. in
  Float.Array.blit column 0 fresh 0 (min n (Float.Array.length column));
  fresh

let resize_bytes column n =
  let fresh = Bytes.make n '\000' in
  Bytes.blit column 0 fresh 0 (min n (Bytes.length column));
  fresh

(* Make prefix id [i] addressable in every session and Loc-RIB of the
   arena: the columns grow together, to at least double their prefix
   capacity. Prefix-major order makes that a widen: existing slots keep
   their index. *)
let reserve a i =
  if i >= a.capacity then begin
    let cap = max (i + 1) (a.capacity * 2) in
    let n = cap * a.sessions in
    a.flags <- resize_bytes a.flags n;
    a.received <- resize a.received n no_path;
    a.last_rc <- resize a.last_rc n None;
    a.advertised <- resize a.advertised n no_path;
    a.deadline <- resize_floats a.deadline n;
    a.parked_rc <- resize a.parked_rc n None;
    let p = cap * a.damped in
    Damper.grow a.penalties p;
    if Array.length a.wheel_slot > 0 then a.wheel_slot <- resize a.wheel_slot p 0;
    let l = cap * a.rows in
    a.originated <- resize_bytes a.originated l;
    a.best_route <- resize a.best_route l no_path;
    a.best_from <- resize a.best_from l from_self;
    a.capacity <- cap
  end

(* Session [k]'s slot for prefix id [i], its penalty and wheel cell (the
   router damps), and the router's Loc-RIB cell for [i]. *)
let slot t k i = (i * t.arena.sessions) + t.base + k
let pcell t k i = (i * t.arena.damped) + t.pbase + k
let rib t i = (i * t.arena.rows) + t.row

let has t k i flag =
  i < t.arena.capacity && Bytes.get_uint8 t.arena.flags (slot t k i) land flag <> 0

(* Only called on addressable slots. *)
let set_flag a s flag = Bytes.set_uint8 a.flags s (Bytes.get_uint8 a.flags s lor flag)
let clear_flag a s flag = Bytes.set_uint8 a.flags s (Bytes.get_uint8 a.flags s land lnot flag)
let received t k i = if i < t.arena.capacity then t.arena.received.(slot t k i) else no_path
let advertised t k i = if i < t.arena.capacity then t.arena.advertised.(slot t k i) else no_path

let deadline t k i =
  if i < t.arena.capacity then Float.Array.get t.arena.deadline (slot t k i) else 0.

let peer_at t k = t.arena.peer_id.(t.base + k)
let is_up t k = Bytes.get_uint8 t.arena.up (t.base + k) <> 0
let is_originated t i = i < t.arena.capacity && Bytes.get_uint8 t.arena.originated (rib t i) <> 0
let best_route t i = if i < t.arena.capacity then t.arena.best_route.(rib t i) else no_path

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

let no_rank = -1

(* Binary search over the ranks: O(log degree), no hashing. *)
let find_rank t p =
  let lo = ref 0 and hi = ref (t.degree - 1) and found = ref no_rank in
  while !found = no_rank && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let q = peer_at t mid in
    if q = p then found := mid else if q < p then lo := mid + 1 else hi := mid - 1
  done;
  !found

let rank t p =
  let k = find_rank t p in
  if k = no_rank then invalid_arg (Printf.sprintf "Router %d: unknown peer %d" t.id p);
  k

let peer_ids t = List.init t.degree (peer_at t)

let session_key t k i =
  if i > prefix_mask then
    invalid_arg (Printf.sprintf "Router: prefix id %d beyond the timer key range" i);
  (t.arena.link.(t.base + k) lsl prefix_bits) lor i

let next_seq t =
  let seq = t.arena.rc_seq.(t.row) + 1 in
  t.arena.rc_seq.(t.row) <- seq;
  seq

let fresh_rc t ~status = Root_cause.origin_event ~node:t.id ~status ~seq:(next_seq t)

let fresh_link_rc t ~peer ~status =
  let seq = next_seq t in
  Root_cause.make ~link:(t.id, peer) ~status ~seq

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)

(* (preference, path length, peer id) — bigger pref wins, then shorter
   path, then lower peer id. Ascending rank iteration makes the id
   tie-break implicit via strict improvement. *)
let better_candidate ~pref_a ~len_a ~peer_a ~pref_b ~len_b ~peer_b =
  pref_a > pref_b
  || (pref_a = pref_b && (len_a < len_b || (len_a = len_b && peer_a < peer_b)))

(* The winning session's rank, or [no_rank] when nothing is usable.
   Self-originated prefixes are the caller's case. *)
let best_session t i =
  let a = t.arena in
  let best = ref no_rank and best_pref = ref 0 and best_len = ref 0 in
  if i < a.capacity then begin
    let first = slot t 0 i in
    for k = 0 to t.degree - 1 do
      let path = a.received.(first + k) in
      if
        path != no_path
        && is_up t k
        && Bytes.get_uint8 a.flags (first + k) land f_suppressed = 0
      then begin
        let from = peer_at t k in
        let pref = Policy.import_preference a.policy ~me:t.id ~from_peer:from ~path in
        let len = As_path.length path in
        if
          !best = no_rank
          || better_candidate ~pref_a:pref ~len_a:len ~peer_a:from ~pref_b:!best_pref
               ~len_b:!best_len ~peer_b:(peer_at t !best)
        then begin
          best := k;
          best_pref := pref;
          best_len := len
        end
      end
    done
  end;
  !best

(* ------------------------------------------------------------------ *)
(* Output path: RIB-Out diffing + MRAI                                 *)

let dispatch t k msg =
  let a = t.arena in
  a.hooks.Hooks.on_send ~time:(Sim.now a.sim) ~src:t.id ~dst:(peer_at t k) msg;
  a.ports.transmit a.link.(t.base + k) msg

let mrai_hook t k prefix action =
  t.arena.hooks.Hooks.on_mrai ~time:(Sim.now t.arena.sim) ~router:t.id ~peer:(peer_at t k) ~prefix
    action

let drop_pending t k prefix action =
  let i = Prefix.to_int prefix in
  if has t k i f_queued then begin
    let s = slot t k i in
    clear_flag t.arena s f_queued;
    t.arena.parked_rc.(s) <- None;
    mrai_hook t k prefix action
  end

(* Send [path] to session [k] now: an announcement, or a withdrawal when
   [path] is [no_path]. *)
let send_now t k prefix path rc =
  let a = t.arena in
  let now = Sim.now a.sim in
  let i = Prefix.to_int prefix in
  if path == no_path then begin
    if i < a.capacity then a.advertised.(slot t k i) <- no_path;
    dispatch t k (Update.withdraw ?rc prefix)
    (* withdrawals do not restart the MRAI *)
  end
  else begin
    let prev = advertised t k i in
    (* Constant options: an announcement boxes none. *)
    let rel_pref =
      if prev == no_path then None
      else
        let c = Int.compare (As_path.length path) (As_path.length prev) in
        if c < 0 then Some Update.Better
        else if c > 0 then Some Update.Worse
        else Some Update.Same_pref
    in
    reserve a i;
    let s = slot t k i in
    a.advertised.(s) <- path;
    dispatch t k (Update.announce ?rc ?rel_pref (Route.make ~prefix ~path));
    if a.config.Config.mrai > 0. then begin
      let deadline = now +. Float.Array.get a.mrai_interval (t.base + k) in
      Float.Array.set a.deadline s deadline;
      if a.config.Config.mrai_per_peer then Float.Array.set a.peer_deadline (t.base + k) deadline
    end
  end

(* [emit] reconciles the advertisement [export] gives for (peer, prefix),
   [no_path] for a withdrawal, with what was last sent, honouring the
   MRAI. Returns 1 when a message was sent or queued, 0 when the peer is
   already up to date. [flushed] when a flush releases a parked update. *)
let emit ?(flushed = false) t k prefix path rc =
  let a = t.arena in
  let i = Prefix.to_int prefix in
  let sent = advertised t k i in
  let same =
    if path == no_path then sent == no_path else sent != no_path && As_path.equal path sent
  in
  if same then begin
    (* A pending older update is superseded by "nothing to do". *)
    drop_pending t k prefix Hooks.Mrai_superseded;
    0
  end
  else begin
    let now = Sim.now a.sim in
    (* Every announcement sets its prefix's deadline, in both modes. In
       per-peer mode the session's deadline gates every send but a
       flush's: the flushes of the updates parked behind a deadline all
       fall due when it passes, and each sends, although the first has
       moved the session's deadline on. A flush is held back only by its
       own prefix's deadline, which is in the future when the prefix was
       announced at this instant before the flush ran: no prefix is
       announced twice within an interval. *)
    let deadline =
      let own = deadline t k i in
      if (not a.config.Config.mrai_per_peer) || (flushed && now >= own) then own
      else Float.Array.get a.peer_deadline (t.base + k)
    in
    let rate_limited = path != no_path || a.config.Config.withdrawal_rate_limiting in
    if a.config.Config.mrai = 0. || (not rate_limited) || now >= deadline then begin
      (* A parked update leaves the queue: sent by its flush, or replaced
         by this send. *)
      drop_pending t k prefix (if flushed then Hooks.Mrai_sent else Hooks.Mrai_superseded);
      send_now t k prefix path rc;
      1
    end
    else begin
      (* Park the update: its flag and root cause. What it announces is
         derived again when its flush fires. *)
      reserve a i;
      let s = slot t k i in
      let fresh = not (has t k i f_queued) in
      a.parked_rc.(s) <- rc;
      set_flag a s f_queued;
      if fresh then mrai_hook t k prefix Hooks.Mrai_queued;
      if not (has t k i f_armed) then begin
        Sim.post a.sim a.ports.flush_on ~time:deadline (session_key t k i);
        set_flag a s f_armed;
        mrai_hook t k prefix Hooks.Flush_armed
      end;
      1
    end
  end

(* [path] is the best route's; what the peer gets is interned with this
   router prepended, whatever table the received path came from, or
   [no_path] for a withdrawal. *)
let export t ~learned_from ~to_peer path =
  if
    Policy.export_allowed t.arena.policy ~me:t.id ~learned_from ~to_peer ~path
    && not (As_path.contains path to_peer)
  then As_path.prepend_interned t.arena.paths t.id path
  else no_path

let learned_from t i =
  let from = t.arena.best_from.(rib t i) in
  if from = from_self then None else Some from

(* What [decision] exports to session [k] for prefix id [i] now. *)
let desired t k i =
  let path = best_route t i in
  if path == no_path then no_path
  else export t ~learned_from:(learned_from t i) ~to_peer:(peer_at t k) path

(* A parked update leaves with what the Loc-RIB exports now. That is what
   was parked: every best-path change re-emits to every up session, which
   replaces or drops the parked update, and [peer_down] drops them all.
   The update stays queued until [emit] sends it or parks it again, for
   the next deadline. *)
let flush t k prefix =
  let i = Prefix.to_int prefix in
  let s = slot t k i in
  clear_flag t.arena s f_armed;
  mrai_hook t k prefix Hooks.Flush_fired;
  if is_up t k && has t k i f_queued then
    ignore (emit ~flushed:true t k prefix (desired t k i) t.arena.parked_rc.(s))

(* Run the decision process for [prefix]; on a best-path change, reconcile
   every peer. Returns the number of updates sent or queued. *)
let decision t prefix ~trigger_rc =
  let a = t.arena in
  let i = Prefix.to_int prefix in
  let path, from =
    if is_originated t i then (As_path.empty, from_self)
    else
      let k = best_session t i in
      if k = no_rank then (no_path, from_self) else (a.received.(slot t k i), peer_at t k)
  in
  let old = best_route t i in
  let unchanged =
    if old == no_path then path == no_path
    else path != no_path && a.best_from.(rib t i) = from && As_path.equal old path
  in
  if unchanged then 0
  else begin
    (* [i] is within the capacity: a best route, old or new, comes from a
       slot or an originated prefix, and both reserved [i]. *)
    a.best_route.(rib t i) <- path;
    a.best_from.(rib t i) <- from;
    let reachable = path != no_path in
    a.hooks.Hooks.on_best_change ~time:(Sim.now a.sim) ~router:t.id ~prefix
      ~best:(if reachable then Some (Route.make ~prefix ~path) else None);
    let learned_from = learned_from t i in
    let emitted = ref 0 in
    for k = 0 to t.degree - 1 do
      if is_up t k then begin
        let out =
          if reachable then export t ~learned_from ~to_peer:(peer_at t k) path else no_path
        in
        emitted := !emitted + emit t k prefix out trigger_rc
      end
    done;
    !emitted
  end

(* ------------------------------------------------------------------ *)
(* Damping                                                             *)

let timer_armed t =
  let a = t.arena in
  let live = a.timer_live.(t.row) + 1 in
  a.timer_live.(t.row) <- live;
  if live > a.timer_peak.(t.row) then a.timer_peak.(t.row) <- live

let timer_fired t = t.arena.timer_live.(t.row) <- t.arena.timer_live.(t.row) - 1

(* A suppressed slot's timer came due: release it if its penalty has
   decayed, else report when to check again. *)
let try_release t k prefix setting ~now =
  let a = t.arena in
  let i = Prefix.to_int prefix in
  let s = slot t k i in
  match Damper.slot_try_reuse setting a.penalties (pcell t k i) ~now with
  | `Not_yet _ as later -> later
  | `Reused ->
      clear_flag a s f_suppressed;
      let emitted = decision t prefix ~trigger_rc:a.last_rc.(s) in
      a.hooks.Hooks.on_reuse ~time:now ~router:t.id ~peer:(peer_at t k) ~prefix
        ~noisy:(emitted > 0);
      `Reused

let reuse_fire t k prefix =
  timer_fired t;
  let a = t.arena in
  let i = Prefix.to_int prefix in
  clear_flag a (slot t k i) f_reuse;
  match t.damping with
  | Some (setting, _) when has t k i f_suppressed -> (
      let now = Sim.now a.sim in
      match try_release t k prefix setting ~now with
      | `Not_yet time ->
          set_flag a (slot t k i) f_reuse;
          timer_armed t;
          (* From 2^34 s on, [time +. 1e-6] can round to [now]; re-arming
             there would fire at one instant forever. *)
          let time = Float.max (time +. 1e-6) (Float.succ now) in
          Sim.post a.sim a.ports.reuse_on ~time (session_key t k i)
      | `Reused -> ())
  | Some _ | None -> ()

(* ---- Tick-mode reuse wheel ---- *)

let bucket_time index bucket = float_of_int bucket *. Reuse_index.tick index

let wheel_key t bucket =
  let bits = t.arena.ports.node_bits in
  if bucket > Sim.max_arg lsr bits then
    invalid_arg
      (Printf.sprintf "Router %d: reuse wheel slot %d beyond the timer key range" t.id bucket);
  (bucket lsl bits) lor t.id

(* First grid bucket at or after [time]. *)
let bucket_after index time = int_of_float (Float.ceil (time /. Reuse_index.tick index))

(* The bucket whose boundary is the first grid point at or after the
   exact reuse instant of penalty cell [p]. Decaying the penalty forward
   to the next boundary before consulting the index table keeps the
   quantisation error inside one tick regardless of where [now] falls
   between boundaries. *)
let bucket_for t index setting p ~now =
  let next = bucket_after index now in
  let dt = bucket_time index next -. now in
  let penalty = Damper.slot_penalty setting t.arena.penalties p ~now in
  let penalty = if dt > 0. then penalty *. exp (-.Damper.lambda setting *. dt) else penalty in
  next + Reuse_index.ticks_to_reuse index ~penalty

(* Queue slot [s] (penalty cell [p]) in wheel bucket [bucket]. *)
let wheel_park t index s p ~bucket =
  let a = t.arena in
  let key = wheel_key t bucket in
  (match Hashtbl.find_opt a.wheel key with
  | Some b -> b.b_items <- s :: b.b_items
  | None ->
      timer_armed t;
      let time = Float.max (bucket_time index bucket) (Sim.now a.sim) in
      Sim.post a.sim a.ports.wheel_on ~time key;
      Hashtbl.replace a.wheel key { b_items = [ s ] });
  set_flag a s f_reuse;
  a.wheel_slot.(p) <- bucket

let wheel_fire t index setting key =
  let a = t.arena in
  match Hashtbl.find_opt a.wheel key with
  | None -> ()
  | Some b ->
      timer_fired t;
      Hashtbl.remove a.wheel key;
      let bucket = key lsr a.ports.node_bits in
      let now = Sim.now a.sim in
      List.iter
        (fun s ->
          let i = s / a.sessions in
          let k = s - (i * a.sessions) - t.base in
          clear_flag a s f_reuse;
          if Bytes.get_uint8 a.flags s land f_suppressed <> 0 then
            match try_release t k (Prefix.v i) setting ~now with
            | `Not_yet time ->
                (* Residual quantisation slack (the exact instant fell just
                   past this boundary): move to the bucket covering the real
                   reuse time, strictly after this one so the wheel always
                   drains. *)
                wheel_park t index s (pcell t k i)
                  ~bucket:(max (bucket + 1) (bucket_after index time))
            | `Reused -> ())
        (List.rev b.b_items)

(* A fresh charge on a queued entry pushed its reuse instant out: migrate
   the entry to the bucket covering the new instant (RFC 2439's "move to
   another reuse list"). A bucket emptied by migration retracts its post
   rather than firing a pointless re-check; if the bucket is armed again
   before that post's time, the new post falls due no earlier than the
   stale one, and one at the same instant is interchangeable with it, so
   the retraction still names the stale post. *)
let wheel_postpone t index setting s p =
  let a = t.arena in
  let bucket = bucket_for t index setting p ~now:(Sim.now a.sim) in
  let current = a.wheel_slot.(p) in
  if bucket <> current then begin
    let key = wheel_key t current in
    (match Hashtbl.find_opt a.wheel key with
    | Some b ->
        b.b_items <- List.filter (fun s' -> s' <> s) b.b_items;
        if b.b_items = [] then begin
          Sim.retract a.sim a.ports.wheel_on key;
          Hashtbl.remove a.wheel key;
          timer_fired t
        end
    | None -> ());
    wheel_park t index s p ~bucket
  end

let schedule_reuse t k prefix (setting, index) =
  let i = Prefix.to_int prefix in
  if not (has t k i f_reuse) then begin
    let a = t.arena in
    let now = Sim.now a.sim in
    let s = slot t k i and p = pcell t k i in
    match index with
    | Some index ->
        let bucket = bucket_for t index setting p ~now in
        wheel_park t index s p ~bucket;
        a.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:(peer_at t k) ~prefix
          ~at:(bucket_time index bucket)
    | None ->
        set_flag a s f_reuse;
        timer_armed t;
        let time = Damper.slot_reuse_time setting a.penalties p ~now +. 1e-6 in
        Sim.post a.sim a.ports.reuse_on ~time (session_key t k i);
        a.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:(peer_at t k) ~prefix ~at:time
  end

(* Charge a damping event to an existing entry. [count] is false when the
   RCN or selective filter decided this update must not charge the
   penalty. *)
let apply_damping t k prefix event ~count =
  match t.damping with
  | Some ((setting, index) as damping) when count -> (
      let a = t.arena in
      let i = Prefix.to_int prefix in
      let s = slot t k i and p = pcell t k i in
      let now = Sim.now a.sim in
      let transition =
        Damper.slot_record setting a.penalties p ~now ~suppressed:(has t k i f_suppressed) event
      in
      if transition = `Suppressed then set_flag a s f_suppressed;
      a.hooks.Hooks.on_penalty ~time:now ~router:t.id ~peer:(peer_at t k) ~prefix
        ~penalty:(Damper.slot_penalty setting a.penalties p ~now);
      match transition with
      | `Suppressed ->
          a.hooks.Hooks.on_suppress ~time:now ~router:t.id ~peer:(peer_at t k) ~prefix;
          schedule_reuse t k prefix damping
      | `Ok -> (
          (* Charging an already-suppressed entry postpones its reuse. In
             Exact mode the outstanding timer re-checks and re-schedules
             itself when it fires; in Tick mode the entry migrates to its
             new bucket immediately. *)
          match index with
          | Some index when has t k i f_reuse && has t k i f_suppressed ->
              wheel_postpone t index setting s p
          | Some _ | None -> ()))
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Timer posts, handed back by the network's channels                  *)

let session_prefix key = Prefix.v (key land prefix_mask)
let flush_due t ~peer key = flush t (rank t peer) (session_prefix key)
let reuse_due t ~peer key = reuse_fire t (rank t peer) (session_prefix key)

let wheel_due t key =
  match t.damping with
  | Some (setting, Some index) -> wheel_fire t index setting key
  | Some (_, None) | None -> ()

(* ------------------------------------------------------------------ *)
(* Input path                                                          *)

(* In RCN mode every received update runs through the per-peer root-cause
   history; the result decides whether the damping penalty is charged.
   The histories exist iff the arena is in RCN mode, one per session of a
   router that damps. *)
let rc_filter t k rc =
  match rc with
  | Some rc when t.pbase >= 0 && Array.length t.arena.histories > 0 ->
      History.observe t.arena.histories.(t.pbase + k) rc = `New
  | Some _ | None -> true

(* In RCN mode the penalty models the root-cause flap itself, not the local
   update type ("each route flap — not each update — increases the damping
   penalty"): a down event charges the withdrawal penalty, an up event the
   re-announcement penalty, whatever shape the locally received update
   takes. *)
let damping_event t ~rc ~local =
  match (t.arena.config.Config.damping_mode, rc) with
  | Config.Rcn, Some { Root_cause.status = Root_cause.Link_down; _ } -> Damper.Withdrawal
  | Config.Rcn, Some { Root_cause.status = Root_cause.Link_up; _ } -> Damper.Reannouncement
  | (Config.Rcn | Config.Plain | Config.Selective), _ -> local

let handle_withdraw t k prefix ~rc ~count =
  let i = Prefix.to_int prefix in
  if received t k i != no_path then begin
    let s = slot t k i in
    t.arena.received.(s) <- no_path;
    t.arena.last_rc.(s) <- rc;
    apply_damping t k prefix (damping_event t ~rc ~local:Damper.Withdrawal) ~count;
    ignore (decision t prefix ~trigger_rc:rc)
  end
(* else a spurious withdrawal: no state change, no penalty (RFC 2439). *)

let handle_announce t k prefix path ~rc ~rel_pref ~count =
  let a = t.arena in
  let i = Prefix.to_int prefix in
  if not (has t k i f_exists) then begin
    (* First announcement: the entry is created, nothing is charged. *)
    reserve a i;
    let s = slot t k i in
    set_flag a s f_exists;
    a.received.(s) <- path;
    a.last_rc.(s) <- rc;
    ignore (decision t prefix ~trigger_rc:rc)
  end
  else begin
    let s = slot t k i in
    let prev = a.received.(s) in
    if prev == no_path || not (As_path.equal prev path) then begin
      let event = if prev == no_path then Damper.Reannouncement else Damper.Attribute_change in
      a.received.(s) <- path;
      a.last_rc.(s) <- rc;
      let count =
        count
        &&
        match (a.config.Config.damping_mode, event, rel_pref) with
        | Config.Selective, Damper.Attribute_change, Some Update.Worse ->
            (* The sender flagged this as a monotonically worse exploration
               step; the selective-damping baseline skips the penalty. *)
            false
        | _ -> true
      in
      apply_damping t k prefix (damping_event t ~rc ~local:event) ~count;
      ignore (decision t prefix ~trigger_rc:rc)
    end
    (* else a duplicate: nothing to do *)
  end

let receive t ~from_peer update =
  let k = rank t from_peer in
  if is_up t k then begin
    let rc = Update.rc update in
    let count = rc_filter t k rc in
    match update with
    | Update.Withdraw { prefix; rc } -> handle_withdraw t k prefix ~rc ~count
    | Update.Announce { route = { Route.prefix; path }; rc; rel_pref } ->
        if As_path.contains path t.id then
          (* Receiver-side loop detection: treat as withdrawal. *)
          handle_withdraw t k prefix ~rc ~count
        else handle_announce t k prefix path ~rc ~rel_pref ~count
  end

(* ------------------------------------------------------------------ *)
(* Local origination                                                   *)

let originates t prefix = is_originated t (Prefix.to_int prefix)

let originate t prefix =
  if not (originates t prefix) then begin
    let i = Prefix.to_int prefix in
    reserve t.arena i;
    Bytes.set_uint8 t.arena.originated (rib t i) 1;
    let rc = fresh_rc t ~status:Root_cause.Link_up in
    ignore (decision t prefix ~trigger_rc:(Some rc))
  end

let withdraw_prefix t prefix =
  if originates t prefix then begin
    Bytes.set_uint8 t.arena.originated (rib t (Prefix.to_int prefix)) 0;
    let rc = fresh_rc t ~status:Root_cause.Link_down in
    ignore (decision t prefix ~trigger_rc:(Some rc))
  end

(* ------------------------------------------------------------------ *)
(* Session flaps                                                       *)

let peer_down t ~peer =
  let k = rank t peer in
  if is_up t k then begin
    let a = t.arena in
    Bytes.set_uint8 a.up (t.base + k) 0;
    (* Tear down the whole output path for the session: parked updates are
       dropped, their flush posts retracted (a stale flush firing at an
       obsolete deadline would flush post-restore updates early, violating
       the MRAI), and both MRAI deadline forms reset so the restored
       session starts with a fresh rate-limit budget. A flush armed after
       the restore falls due no earlier than the retracted one (deadlines
       only move forward), so the retraction always names the stale post.
       Slots are visited in ascending prefix order. *)
    let cap = a.capacity in
    for i = 0 to cap - 1 do
      drop_pending t k (Prefix.v i) Hooks.Mrai_cancelled
    done;
    for i = 0 to cap - 1 do
      if has t k i f_armed then begin
        Sim.retract a.sim a.ports.flush_on (session_key t k i);
        clear_flag a (slot t k i) f_armed;
        mrai_hook t k (Prefix.v i) Hooks.Flush_cancelled
      end
    done;
    for i = 0 to cap - 1 do
      let s = slot t k i in
      a.advertised.(s) <- no_path;
      Float.Array.set a.deadline s 0.
    done;
    Float.Array.set a.peer_deadline (t.base + k) 0.;
    let rc = Some (fresh_link_rc t ~peer ~status:Root_cause.Link_down) in
    let affected = ref [] in
    for i = cap - 1 downto 0 do
      if a.received.(slot t k i) != no_path then affected := i :: !affected
    done;
    List.iter
      (fun i ->
        let s = slot t k i in
        a.received.(s) <- no_path;
        a.last_rc.(s) <- rc;
        apply_damping t k (Prefix.v i) Damper.Withdrawal ~count:true;
        ignore (decision t (Prefix.v i) ~trigger_rc:rc))
      !affected
  end

let peer_up t ~peer =
  let k = rank t peer in
  if not (is_up t k) then begin
    Bytes.set_uint8 t.arena.up (t.base + k) 1;
    let rc = Some (fresh_link_rc t ~peer ~status:Root_cause.Link_up) in
    (* Re-advertise the full table to the restored session, in ascending
       prefix order. *)
    for i = 0 to t.arena.capacity - 1 do
      if best_route t i != no_path then ignore (emit t k (Prefix.v i) (desired t k i) rc)
    done
  end

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

(* A stored path as the route it stands for, built on demand. *)
let route_of prefix path = if path == no_path then None else Some (Route.make ~prefix ~path)

let best t prefix = route_of prefix (best_route t (Prefix.to_int prefix))

let session_up t ~peer = is_up t (rank t peer)

let best_peer t prefix =
  let i = Prefix.to_int prefix in
  if best_route t i == no_path then None else learned_from t i

let rib_in_route t ~peer prefix = route_of prefix (received t (rank t peer) (Prefix.to_int prefix))

let is_suppressed t ~peer prefix = has t (rank t peer) (Prefix.to_int prefix) f_suppressed

let penalty t ~peer prefix =
  let k = rank t peer in
  let i = Prefix.to_int prefix in
  match t.damping with
  | Some (setting, _) when has t k i f_exists ->
      Damper.slot_penalty setting t.arena.penalties (pcell t k i) ~now:(Sim.now t.arena.sim)
  | Some _ | None -> 0.

let peak_reuse_timers t = t.arena.timer_peak.(t.row)

(* Slots with [flag] set among sessions [first] to [last]. *)
let count_slots t ~first ~last flag =
  let a = t.arena in
  let n = ref 0 in
  for i = 0 to a.capacity - 1 do
    for k = first to last do
      if Bytes.get_uint8 a.flags (slot t k i) land flag <> 0 then incr n
    done
  done;
  !n

let suppressed_count t = count_slots t ~first:0 ~last:(t.degree - 1) f_suppressed

let known_prefixes t =
  let known i =
    let entry = ref false in
    for k = 0 to t.degree - 1 do
      if has t k i f_exists then entry := true
    done;
    !entry || best_route t i != no_path || is_originated t i
  in
  let acc = ref [] in
  for i = t.arena.capacity - 1 downto 0 do
    if known i then acc := Prefix.v i :: !acc
  done;
  !acc

let recompute_best t prefix =
  let i = Prefix.to_int prefix in
  if is_originated t i then route_of prefix As_path.empty
  else
    let k = best_session t i in
    if k = no_rank then None else route_of prefix t.arena.received.(slot t k i)

(* ------------------------------------------------------------------ *)
(* Convergence-oracle introspection                                    *)

let sessions_activity t ~first ~last =
  {
    Oracle.in_flight = 0;
    mrai_pending = count_slots t ~first ~last f_queued;
    scheduled_flushes = count_slots t ~first ~last f_armed;
    reuse_timers = count_slots t ~first ~last f_reuse;
  }

let peer_activity t ~peer =
  let k = rank t peer in
  sessions_activity t ~first:k ~last:k

let activity t = sessions_activity t ~first:0 ~last:(t.degree - 1)
