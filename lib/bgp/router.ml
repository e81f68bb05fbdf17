module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Damper = Rfd_damping.Damper
module History = Rfd_damping.History
module Reuse_index = Rfd_damping.Reuse_index

type desired = D_announce of As_path.t | D_withdraw

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

(* Slot flags. *)
let f_exists = 1 (* a RIB-In entry exists, routed or withdrawn *)
let f_suppressed = 2
let f_reuse = 4 (* a reuse timer (or wheel bucket) is outstanding *)
let f_queued = 8 (* an update is parked behind the MRAI *)
let f_armed = 16 (* a flush timer is armed *)

(* The route columns' "none". It is a one-hop path, never interned or
   sent, so it is only matched by physical equality; the empty path
   cannot serve, since it is a self-originated best route's. *)
let no_path = As_path.prepend (-1) As_path.empty
let no_parked = { desired = D_withdraw; rc = None }

(* A flush or reuse post's argument is the session's directed link and the
   prefix id, so the network can hand it to the link's source router; a
   wheel post's is the bucket number and the router id. *)
let prefix_bits = 31
let prefix_mask = (1 lsl prefix_bits) - 1
let session_link key = key lsr prefix_bits
let wheel_router ~node_bits key = key land ((1 lsl node_bits) - 1)

(* RFC 2439 §4.8.6 reuse list (Config.Tick mode): suppressed entries are
   bucketed by absolute tick number [k] (firing at [k *. tick]) instead of
   each arming its own simulator timer. One post per occupied slot, one
   table lookup per suppression; a re-charged entry migrates to the slot
   covering its new reuse instant, and a bucket emptied by migration
   retracts its post instead of firing a pointless re-check. A bucket names
   an entry by its slot index, the packed (prefix, rank) below, which
   survives the columns growing. *)
type bucket = { mutable b_items : int list (* reverse insertion order *) }

type wheel = {
  w_index : Reuse_index.t;
  w_tick : float;
  w_lambda : float; (* decay rate of the router's damping params *)
  w_slots : (int, bucket) Hashtbl.t;
}

(* A session is a rank: the router's sessions ranked by ascending peer id,
   and every per-session value is a column of that length. Per-prefix
   session state is one set of router-level slot columns, laid out
   prefix-major: session [k]'s slot for prefix id [i] is [i * degree + k],
   so the decision process scans one contiguous run and growing past the
   capacity is a plain widen. The slot columns are empty until a slot is
   first needed; from then on the sessions are fixed, since a new rank
   would move every slot. A read past capacity reads as absent. No slot
   owns a heap block: paths and root causes are shared values, absence is
   a sentinel, and penalties live in float arrays. A slot's prefix is its
   index, so the route columns hold the route's interned path alone. *)
type t = {
  sim : Sim.t;
  id : int;
  policy : Policy.t;
  config : Config.t;
  damping : Rfd_damping.Params.t option;
  wheel : wheel option; (* Some iff damping is on and reuse_mode is Tick *)
  hooks : Hooks.t;
  ports : ports;
  rng : Rng.t;
  paths : As_path.table; (* the network's path intern table, shared across routers *)
  (* Session columns, by rank. They double while sessions are added and
     are trimmed to [degree] when the slot columns are first sized. *)
  mutable degree : int;
  mutable peer_id : int array;
  mutable link : int array; (* the directed link to the peer: transport and timer key *)
  mutable mrai_interval : Float.Array.t; (* jittered once per session *)
  mutable peer_deadline : Float.Array.t; (* shared MRAI deadline in per-peer mode *)
  mutable up : Bytes.t;
  mutable rcn_history : Root_cause.t History.t array;
      (* empty unless this router damps in RCN mode, the only consumer *)
  (* Slot columns: [capacity * degree] slots. *)
  mutable capacity : int; (* prefix ids with a slot; 0 until first use *)
  mutable flags : Bytes.t; (* [f_*] bits per slot *)
  mutable received : As_path.t array; (* RIB-In; [no_path] = withdrawn or never received *)
  mutable last_rc : Root_cause.t option array; (* root cause of the last update, as received *)
  mutable advertised : As_path.t array; (* RIB-Out; [no_path] = withdrawn or never sent *)
  mutable deadline : Float.Array.t; (* per-prefix MRAI deadline; 0. = none *)
  mutable parked : parked array; (* [no_parked] unless [f_queued] or [f_armed] *)
  mutable wheel_slot : int array;
      (* reuse-wheel bucket holding a slot while [f_reuse]; empty unless Tick mode *)
  penalties : Damper.slots option; (* Some iff this router damps, under its one setting *)
  (* Loc-RIB and origination, router-level columns indexed by prefix id. *)
  mutable originated : Bytes.t; (* 1 = originated here; its length is the capacity *)
  mutable best_route : As_path.t array; (* [no_path] = no best route *)
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

let create ?paths ~sim ~id ~policy ~config ~damping ~rng ~hooks ~ports () =
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
    wheel;
    hooks;
    ports;
    rng;
    paths = (match paths with Some tbl -> tbl | None -> As_path.create_table ());
    degree = 0;
    peer_id = [||];
    link = [||];
    mrai_interval = Float.Array.create 0;
    peer_deadline = Float.Array.create 0;
    up = Bytes.empty;
    rcn_history = [||];
    capacity = 0;
    flags = Bytes.empty;
    received = [||];
    last_rc = [||];
    advertised = [||];
    deadline = Float.Array.create 0;
    parked = [||];
    wheel_slot = [||];
    penalties =
      (* One decay cache per router. *)
      Option.map
        (fun params -> Damper.slots (Damper.setting ~cache:(Damper.cache ()) params) ~capacity:0)
        damping;
    originated = Bytes.make hint '\000';
    best_route = Array.make hint no_path;
    best_from = Array.make hint from_self;
    rc_seq = 0;
    timer_events = 0;
    timer_live = 0;
    timer_peak = 0;
  }

let id t = t.id
let damping_params t = t.damping

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

(* Make prefix id [i] addressable in every session: the slot columns grow
   together, to at least double their prefix capacity, from
   [Config.prefix_table_hint] on first use. Prefix-major order makes that
   a widen: existing slots keep their index. *)
let reserve t i =
  if i >= t.capacity then begin
    let d = t.degree in
    if t.capacity = 0 && Array.length t.peer_id > d then begin
      t.peer_id <- resize t.peer_id d 0;
      t.link <- resize t.link d 0;
      t.mrai_interval <- resize_floats t.mrai_interval d;
      t.peer_deadline <- resize_floats t.peer_deadline d;
      t.up <- resize_bytes t.up d;
      if Array.length t.rcn_history > 0 then
        t.rcn_history <- Array.sub t.rcn_history 0 d
    end;
    let cap =
      if t.capacity = 0 then max (i + 1) t.config.Config.prefix_table_hint
      else max (i + 1) (t.capacity * 2)
    in
    let n = cap * d in
    t.flags <- resize_bytes t.flags n;
    t.received <- resize t.received n no_path;
    t.last_rc <- resize t.last_rc n None;
    t.advertised <- resize t.advertised n no_path;
    t.deadline <- resize_floats t.deadline n;
    t.parked <- resize t.parked n no_parked;
    if t.wheel <> None then t.wheel_slot <- resize t.wheel_slot n 0;
    (match t.penalties with Some pen -> Damper.grow pen n | None -> ());
    t.capacity <- cap
  end

(* Session [k]'s slot for prefix id [i]. *)
let slot t k i = (i * t.degree) + k

let has t k i flag =
  i < t.capacity && Bytes.get_uint8 t.flags (slot t k i) land flag <> 0

(* Only called on addressable slots. *)
let set_flag t s flag = Bytes.set_uint8 t.flags s (Bytes.get_uint8 t.flags s lor flag)
let clear_flag t s flag = Bytes.set_uint8 t.flags s (Bytes.get_uint8 t.flags s land lnot flag)
let received t k i = if i < t.capacity then t.received.(slot t k i) else no_path
let advertised t k i = if i < t.capacity then t.advertised.(slot t k i) else no_path
let deadline t k i = if i < t.capacity then Float.Array.get t.deadline (slot t k i) else 0.
let is_up t k = Bytes.get_uint8 t.up k <> 0

(* The same for the router's own columns. *)
let loc_capacity t = Bytes.length t.originated

let loc_reserve t i =
  let cap = loc_capacity t in
  if i >= cap then begin
    let cap' = max (i + 1) (cap * 2) in
    t.originated <- resize_bytes t.originated cap';
    t.best_route <- resize t.best_route cap' no_path;
    t.best_from <- resize t.best_from cap' from_self
  end

let is_originated t i = i < loc_capacity t && Bytes.get_uint8 t.originated i <> 0
let best_route t i = if i < loc_capacity t then t.best_route.(i) else no_path

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

let no_rank = -1

(* Binary search over the ranks: O(log degree), no hashing. *)
let find_rank t peer =
  let lo = ref 0 and hi = ref (t.degree - 1) and found = ref no_rank in
  while !found = no_rank && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let p = t.peer_id.(mid) in
    if p = peer then found := mid else if p < peer then lo := mid + 1 else hi := mid - 1
  done;
  !found

let rank t peer =
  let k = find_rank t peer in
  if k = no_rank then invalid_arg (Printf.sprintf "Router %d: unknown peer %d" t.id peer);
  k

(* Open rank [pos] in a session column of [n] used entries, doubling it
   when full. *)
let insert_at column n pos fill =
  let column = if n < Array.length column then column else resize column (max 1 (2 * n)) fill in
  Array.blit column pos column (pos + 1) (n - pos);
  column

let insert_float_at column n pos =
  let column =
    if n < Float.Array.length column then column else resize_floats column (max 1 (2 * n))
  in
  Float.Array.blit column pos column (pos + 1) (n - pos);
  column

let insert_byte_at column n pos =
  let column = if n < Bytes.length column then column else resize_bytes column (max 1 (2 * n)) in
  Bytes.blit column pos column (pos + 1) (n - pos);
  column

let connect t ~peer ~link =
  if peer = t.id then invalid_arg "Router.connect: cannot peer with self";
  if peer < 0 then invalid_arg (Printf.sprintf "Router.connect: negative peer id %d" peer);
  if link < 0 || link > Sim.max_arg lsr prefix_bits then
    invalid_arg (Printf.sprintf "Router.connect: link %d outside the timer key range" link);
  if find_rank t peer <> no_rank then
    invalid_arg (Printf.sprintf "Router.connect: duplicate peer %d" peer);
  if t.capacity > 0 then
    invalid_arg
      (Printf.sprintf "Router.connect: router %d already holds RIB slots for its sessions" t.id);
  let lo, hi = t.config.Config.mrai_jitter in
  let interval = t.config.Config.mrai *. Rng.uniform t.rng ~lo ~hi in
  let n = t.degree in
  (* The rank of the new session: sessions are usually added in ascending
     peer order, which appends. *)
  let pos = ref n in
  while !pos > 0 && t.peer_id.(!pos - 1) > peer do
    decr pos
  done;
  let pos = !pos in
  t.peer_id <- insert_at t.peer_id n pos 0;
  t.peer_id.(pos) <- peer;
  t.link <- insert_at t.link n pos 0;
  t.link.(pos) <- link;
  t.mrai_interval <- insert_float_at t.mrai_interval n pos;
  Float.Array.set t.mrai_interval pos interval;
  t.peer_deadline <- insert_float_at t.peer_deadline n pos;
  Float.Array.set t.peer_deadline pos 0.;
  t.up <- insert_byte_at t.up n pos;
  Bytes.set_uint8 t.up pos 1;
  if t.config.Config.damping_mode = Config.Rcn && t.damping <> None then begin
    let history = History.create ~capacity:t.config.Config.rcn_history () in
    t.rcn_history <- insert_at t.rcn_history n pos history;
    t.rcn_history.(pos) <- history
  end;
  t.degree <- n + 1

let peer_ids t = List.init t.degree (fun k -> t.peer_id.(k))

let session_key t k i =
  if i > prefix_mask then
    invalid_arg (Printf.sprintf "Router: prefix id %d beyond the timer key range" i);
  (t.link.(k) lsl prefix_bits) lor i

let fresh_rc t ~status = (
  t.rc_seq <- t.rc_seq + 1;
  Root_cause.origin_event ~node:t.id ~status ~seq:t.rc_seq)

let fresh_link_rc t ~peer ~status =
  t.rc_seq <- t.rc_seq + 1;
  Root_cause.make ~link:(t.id, peer) ~status ~seq:t.rc_seq

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
  let best = ref no_rank and best_pref = ref 0 and best_len = ref 0 in
  if i < t.capacity then begin
    let base = slot t 0 i in
    for k = 0 to t.degree - 1 do
      let path = t.received.(base + k) in
      if
        path != no_path
        && is_up t k
        && Bytes.get_uint8 t.flags (base + k) land f_suppressed = 0
      then begin
        let peer = t.peer_id.(k) in
        let pref = Policy.import_preference t.policy ~me:t.id ~from_peer:peer ~path in
        let len = As_path.length path in
        if
          !best = no_rank
          || better_candidate ~pref_a:pref ~len_a:len ~peer_a:peer ~pref_b:!best_pref
               ~len_b:!best_len ~peer_b:t.peer_id.(!best)
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
  t.hooks.Hooks.on_send ~time:(Sim.now t.sim) ~src:t.id ~dst:t.peer_id.(k) msg;
  t.ports.transmit t.link.(k) msg

let mrai_hook t k prefix action =
  t.hooks.Hooks.on_mrai ~time:(Sim.now t.sim) ~router:t.id ~peer:t.peer_id.(k) ~prefix action

(* Clear [flag] (f_queued or f_armed) on slot [s]; the parked record goes
   once neither is left. *)
let unpark t s flag =
  clear_flag t s flag;
  if Bytes.get_uint8 t.flags s land (f_queued lor f_armed) = 0 then t.parked.(s) <- no_parked

let drop_pending t k prefix action =
  let i = Prefix.to_int prefix in
  if has t k i f_queued then begin
    unpark t (slot t k i) f_queued;
    mrai_hook t k prefix action
  end

let send_now t k prefix desired rc =
  let now = Sim.now t.sim in
  let i = Prefix.to_int prefix in
  match desired with
  | D_withdraw ->
      if i < t.capacity then t.advertised.(slot t k i) <- no_path;
      dispatch t k (Update.withdraw ?rc prefix)
      (* withdrawals do not restart the MRAI *)
  | D_announce path ->
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
      reserve t i;
      let s = slot t k i in
      t.advertised.(s) <- path;
      dispatch t k (Update.announce ?rc ?rel_pref (Route.make ~prefix ~path));
      if t.config.Config.mrai > 0. then begin
        let deadline = now +. Float.Array.get t.mrai_interval k in
        Float.Array.set t.deadline s deadline;
        if t.config.Config.mrai_per_peer then Float.Array.set t.peer_deadline k deadline
      end

(* [emit] reconciles the desired advertisement for (peer, prefix) with what
   was last sent, honouring the MRAI. Returns 1 when a message was sent or
   queued, 0 when the peer is already up to date. [flushed] when a flush
   releases a parked update. *)
let emit ?(flushed = false) t k prefix desired rc =
  let i = Prefix.to_int prefix in
  let sent = advertised t k i in
  let same =
    match desired with
    | D_withdraw -> sent == no_path
    | D_announce p -> sent != no_path && As_path.equal p sent
  in
  if same then begin
    (* A pending older update is superseded by "nothing to do". *)
    drop_pending t k prefix Hooks.Mrai_superseded;
    0
  end
  else begin
    let now = Sim.now t.sim in
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
      if (not t.config.Config.mrai_per_peer) || (flushed && now >= own) then own
      else Float.Array.get t.peer_deadline k
    in
    let rate_limited =
      match desired with
      | D_withdraw -> t.config.Config.withdrawal_rate_limiting
      | D_announce _ -> true
    in
    if t.config.Config.mrai = 0. || (not rate_limited) || now >= deadline then begin
      (* A parked update leaves the queue: sent by its flush, or replaced
         by this send. *)
      drop_pending t k prefix (if flushed then Hooks.Mrai_sent else Hooks.Mrai_superseded);
      send_now t k prefix desired rc;
      1
    end
    else begin
      reserve t i;
      let s = slot t k i in
      let fresh = not (has t k i f_queued) in
      let p = t.parked.(s) in
      if p == no_parked then t.parked.(s) <- { desired; rc }
      else begin
        p.desired <- desired;
        p.rc <- rc
      end;
      set_flag t s f_queued;
      if fresh then mrai_hook t k prefix Hooks.Mrai_queued;
      if not (has t k i f_armed) then begin
        Sim.post t.sim t.ports.flush_on ~time:deadline (session_key t k i);
        set_flag t s f_armed;
        mrai_hook t k prefix Hooks.Flush_armed
      end;
      1
    end
  end

let flush t k prefix =
  let i = Prefix.to_int prefix in
  let s = slot t k i in
  let p = t.parked.(s) in
  unpark t s f_armed;
  mrai_hook t k prefix Hooks.Flush_fired;
  (* The update stays queued until [emit] sends it or parks it again, for
     the next deadline. *)
  if is_up t k && has t k i f_queued then ignore (emit ~flushed:true t k prefix p.desired p.rc)

(* [path] is the best route's; what the peer gets is interned with this
   router prepended, whatever table the received path came from. *)
let export t ~learned_from ~to_peer path =
  if
    Policy.export_allowed t.policy ~me:t.id ~learned_from ~to_peer ~path
    && not (As_path.contains path to_peer)
  then D_announce (As_path.prepend_interned t.paths t.id path)
  else D_withdraw

let learned_from t i =
  let from = t.best_from.(i) in
  if from = from_self then None else Some from

(* Run the decision process for [prefix]; on a best-path change, reconcile
   every peer. Returns the number of updates sent or queued. *)
let decision t prefix ~trigger_rc =
  let i = Prefix.to_int prefix in
  let path, from =
    if is_originated t i then (As_path.empty, from_self)
    else
      let k = best_session t i in
      if k = no_rank then (no_path, from_self) else (t.received.(slot t k i), t.peer_id.(k))
  in
  let old = best_route t i in
  let unchanged =
    if old == no_path then path == no_path
    else path != no_path && t.best_from.(i) = from && As_path.equal old path
  in
  if unchanged then 0
  else begin
    loc_reserve t i;
    t.best_route.(i) <- path;
    t.best_from.(i) <- from;
    let reachable = path != no_path in
    t.hooks.Hooks.on_best_change ~time:(Sim.now t.sim) ~router:t.id ~prefix
      ~best:(if reachable then Some (Route.make ~prefix ~path) else None);
    let learned_from = learned_from t i in
    let emitted = ref 0 in
    for k = 0 to t.degree - 1 do
      if is_up t k then begin
        let desired =
          if reachable then export t ~learned_from ~to_peer:t.peer_id.(k) path else D_withdraw
        in
        emitted := !emitted + emit t k prefix desired trigger_rc
      end
    done;
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
let try_release t k prefix pen ~now =
  let s = slot t k (Prefix.to_int prefix) in
  match Damper.slot_try_reuse pen s ~now with
  | `Not_yet _ as later -> later
  | `Reused ->
      clear_flag t s f_suppressed;
      let emitted = decision t prefix ~trigger_rc:t.last_rc.(s) in
      t.hooks.Hooks.on_reuse ~time:now ~router:t.id ~peer:t.peer_id.(k) ~prefix
        ~noisy:(emitted > 0);
      `Reused

let reuse_fire t k prefix =
  timer_fired t;
  let i = Prefix.to_int prefix in
  clear_flag t (slot t k i) f_reuse;
  match t.penalties with
  | Some pen when has t k i f_suppressed -> (
      let now = Sim.now t.sim in
      match try_release t k prefix pen ~now with
      | `Not_yet time ->
          set_flag t (slot t k i) f_reuse;
          timer_armed t;
          (* From 2^34 s on, [time +. 1e-6] can round to [now]; re-arming
             there would fire at one instant forever. *)
          let time = Float.max (time +. 1e-6) (Float.succ now) in
          Sim.post t.sim t.ports.reuse_on ~time (session_key t k i)
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
let wheel_slot_for w pen s ~now =
  let next = wheel_slot_after w now in
  let dt = wheel_slot_time w next -. now in
  let penalty = Damper.slot_penalty pen s ~now in
  let penalty = if dt > 0. then penalty *. exp (-.w.w_lambda *. dt) else penalty in
  next + Reuse_index.ticks_to_reuse w.w_index ~penalty

(* Queue slot index [s] in wheel bucket [slot]. *)
let wheel_park t w s ~slot =
  (match Hashtbl.find_opt w.w_slots slot with
  | Some b -> b.b_items <- s :: b.b_items
  | None ->
      timer_armed t;
      let time = Float.max (wheel_slot_time w slot) (Sim.now t.sim) in
      Sim.post t.sim t.ports.wheel_on ~time (wheel_key t slot);
      Hashtbl.replace w.w_slots slot { b_items = [ s ] });
  set_flag t s f_reuse;
  t.wheel_slot.(s) <- slot

let wheel_fire t w slot =
  match Hashtbl.find_opt w.w_slots slot with
  | None -> ()
  | Some bucket ->
      timer_fired t;
      Hashtbl.remove w.w_slots slot;
      let now = Sim.now t.sim in
      List.iter
        (fun s ->
          let k = s mod t.degree and prefix = Prefix.v (s / t.degree) in
          clear_flag t s f_reuse;
          match t.penalties with
          | Some pen when Bytes.get_uint8 t.flags s land f_suppressed <> 0 -> (
              match try_release t k prefix pen ~now with
              | `Not_yet time ->
                  (* Residual quantisation slack (the exact instant fell just
                     past this boundary): move to the slot covering the real
                     reuse time, strictly after this one so the wheel always
                     drains. *)
                  wheel_park t w s ~slot:(max (slot + 1) (wheel_slot_after w time))
              | `Reused -> ())
          | Some _ | None -> ())
        (List.rev bucket.b_items)

(* A fresh charge on a queued entry pushed its reuse instant out: migrate
   the entry to the slot covering the new instant (RFC 2439's "move to
   another reuse list"). A bucket emptied by migration retracts its post
   rather than firing a pointless re-check; if the slot is armed again
   before that post's time, the new post falls due no earlier than the
   stale one, and one at the same instant is interchangeable with it, so
   the retraction still names the stale post. *)
let wheel_postpone t w s pen =
  let slot = wheel_slot_for w pen s ~now:(Sim.now t.sim) in
  let current = t.wheel_slot.(s) in
  if slot <> current then begin
    (match Hashtbl.find_opt w.w_slots current with
    | Some b ->
        b.b_items <- List.filter (fun s' -> s' <> s) b.b_items;
        if b.b_items = [] then begin
          Sim.retract t.sim t.ports.wheel_on (wheel_key t current);
          Hashtbl.remove w.w_slots current;
          t.timer_live <- t.timer_live - 1
        end
    | None -> ());
    wheel_park t w s ~slot
  end

let schedule_reuse t k prefix pen =
  let i = Prefix.to_int prefix in
  if not (has t k i f_reuse) then begin
    let now = Sim.now t.sim in
    let s = slot t k i in
    match t.wheel with
    | Some w ->
        let slot = wheel_slot_for w pen s ~now in
        wheel_park t w s ~slot;
        t.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:t.peer_id.(k) ~prefix
          ~at:(wheel_slot_time w slot)
    | None ->
        set_flag t s f_reuse;
        timer_armed t;
        let time = Damper.slot_reuse_time pen s ~now +. 1e-6 in
        Sim.post t.sim t.ports.reuse_on ~time (session_key t k i);
        t.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:t.peer_id.(k) ~prefix
          ~at:time
  end

(* Charge a damping event to an existing entry. [count] is false when the
   RCN or selective filter decided this update must not charge the
   penalty. *)
let apply_damping t k prefix event ~count =
  match t.penalties with
  | Some pen when count -> (
      let i = Prefix.to_int prefix in
      let s = slot t k i in
      let now = Sim.now t.sim in
      let transition =
        Damper.slot_record pen s ~now ~suppressed:(has t k i f_suppressed) event
      in
      if transition = `Suppressed then set_flag t s f_suppressed;
      t.hooks.Hooks.on_penalty ~time:now ~router:t.id ~peer:t.peer_id.(k) ~prefix
        ~penalty:(Damper.slot_penalty pen s ~now);
      match transition with
      | `Suppressed ->
          t.hooks.Hooks.on_suppress ~time:now ~router:t.id ~peer:t.peer_id.(k) ~prefix;
          schedule_reuse t k prefix pen
      | `Ok -> (
          (* Charging an already-suppressed entry postpones its reuse. In
             Exact mode the outstanding timer re-checks and re-schedules
             itself when it fires; in Tick mode the entry migrates to its
             new slot immediately. *)
          match t.wheel with
          | Some w when has t k i f_reuse && has t k i f_suppressed ->
              wheel_postpone t w s pen
          | Some _ | None -> ()))
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Timer posts, handed back by the network's channels                  *)

let session_prefix key = Prefix.v (key land prefix_mask)
let flush_due t ~peer key = flush t (rank t peer) (session_prefix key)
let reuse_due t ~peer key = reuse_fire t (rank t peer) (session_prefix key)

let wheel_due t key =
  match t.wheel with
  | Some w -> wheel_fire t w (key lsr t.ports.node_bits)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Input path                                                          *)

(* In RCN mode every received update runs through the per-peer root-cause
   history; the result decides whether the damping penalty is charged.
   The histories exist iff this router damps in RCN mode. *)
let rc_filter t k rc =
  match rc with
  | Some rc when Array.length t.rcn_history > 0 -> History.observe t.rcn_history.(k) rc = `New
  | Some _ | None -> true

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

let handle_withdraw t k prefix ~rc ~count =
  let i = Prefix.to_int prefix in
  if received t k i != no_path then begin
    let s = slot t k i in
    t.received.(s) <- no_path;
    t.last_rc.(s) <- rc;
    apply_damping t k prefix (damping_event t ~rc ~local:Damper.Withdrawal) ~count;
    ignore (decision t prefix ~trigger_rc:rc)
  end
(* else a spurious withdrawal: no state change, no penalty (RFC 2439). *)

let handle_announce t k prefix path ~rc ~rel_pref ~count =
  let i = Prefix.to_int prefix in
  if not (has t k i f_exists) then begin
    (* First announcement: the entry is created, nothing is charged. *)
    reserve t i;
    let s = slot t k i in
    set_flag t s f_exists;
    t.received.(s) <- path;
    t.last_rc.(s) <- rc;
    ignore (decision t prefix ~trigger_rc:rc)
  end
  else begin
    let s = slot t k i in
    let prev = t.received.(s) in
    if prev == no_path || not (As_path.equal prev path) then begin
      let event = if prev == no_path then Damper.Reannouncement else Damper.Attribute_change in
      t.received.(s) <- path;
      t.last_rc.(s) <- rc;
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
  let k = rank t peer in
  if is_up t k then begin
    Bytes.set_uint8 t.up k 0;
    (* Tear down the whole output path for the session: parked updates are
       dropped, their flush posts retracted (a stale flush firing at an
       obsolete deadline would flush post-restore updates early, violating
       the MRAI), and both MRAI deadline forms reset so the restored
       session starts with a fresh rate-limit budget. A flush armed after
       the restore falls due no earlier than the retracted one (deadlines
       only move forward), so the retraction always names the stale post.
       Slots are visited in ascending prefix order. *)
    let cap = t.capacity in
    for i = 0 to cap - 1 do
      drop_pending t k (Prefix.v i) Hooks.Mrai_cancelled
    done;
    for i = 0 to cap - 1 do
      if has t k i f_armed then begin
        Sim.retract t.sim t.ports.flush_on (session_key t k i);
        unpark t (slot t k i) f_armed;
        mrai_hook t k (Prefix.v i) Hooks.Flush_cancelled
      end
    done;
    for i = 0 to cap - 1 do
      let s = slot t k i in
      t.advertised.(s) <- no_path;
      Float.Array.set t.deadline s 0.
    done;
    Float.Array.set t.peer_deadline k 0.;
    let rc = Some (fresh_link_rc t ~peer ~status:Root_cause.Link_down) in
    let affected = ref [] in
    for i = cap - 1 downto 0 do
      if t.received.(slot t k i) != no_path then affected := i :: !affected
    done;
    List.iter
      (fun i ->
        let s = slot t k i in
        t.received.(s) <- no_path;
        t.last_rc.(s) <- rc;
        apply_damping t k (Prefix.v i) Damper.Withdrawal ~count:true;
        ignore (decision t (Prefix.v i) ~trigger_rc:rc))
      !affected
  end

let peer_up t ~peer =
  let k = rank t peer in
  if not (is_up t k) then begin
    Bytes.set_uint8 t.up k 1;
    let rc = Some (fresh_link_rc t ~peer ~status:Root_cause.Link_up) in
    (* Re-advertise the full table to the restored session, in ascending
       prefix order. *)
    for i = 0 to loc_capacity t - 1 do
      let path = t.best_route.(i) in
      if path != no_path then
        ignore
          (emit t k (Prefix.v i)
             (export t ~learned_from:(learned_from t i) ~to_peer:peer path)
             rc)
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
  match t.penalties with
  | Some pen when has t k i f_exists -> Damper.slot_penalty pen (slot t k i) ~now:(Sim.now t.sim)
  | Some _ | None -> 0.

let reuse_timer_events t = t.timer_events
let peak_reuse_timers t = t.timer_peak

(* Slots with [flag] set: session [k]'s, or every session's when [k] is
   [no_rank]. *)
let count_slots t k flag =
  let n = ref 0 in
  if k = no_rank then
    for s = 0 to (t.capacity * t.degree) - 1 do
      if Bytes.get_uint8 t.flags s land flag <> 0 then incr n
    done
  else
    for i = 0 to t.capacity - 1 do
      if has t k i flag then incr n
    done;
  !n

let suppressed_count t = count_slots t no_rank f_suppressed

let known_prefixes t =
  let known i =
    let entry = ref false in
    for k = 0 to t.degree - 1 do
      if has t k i f_exists then entry := true
    done;
    !entry || best_route t i != no_path || is_originated t i
  in
  let acc = ref [] in
  for i = max t.capacity (loc_capacity t) - 1 downto 0 do
    if known i then acc := Prefix.v i :: !acc
  done;
  !acc

let recompute_best t prefix =
  let i = Prefix.to_int prefix in
  if is_originated t i then route_of prefix As_path.empty
  else
    let k = best_session t i in
    if k = no_rank then None else route_of prefix t.received.(slot t k i)

(* ------------------------------------------------------------------ *)
(* Convergence-oracle introspection                                    *)

let session_activity t k =
  {
    Oracle.in_flight = 0;
    mrai_pending = count_slots t k f_queued;
    scheduled_flushes = count_slots t k f_armed;
    reuse_timers = count_slots t k f_reuse;
  }

let peer_activity t ~peer = session_activity t (rank t peer)
let activity t = session_activity t no_rank
