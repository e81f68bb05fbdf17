module Timeseries = Rfd_engine.Timeseries
module Column = Rfd_engine.Column
module Hooks = Rfd_bgp.Hooks

type t = {
  mutable dropped : int;
  mutable duplicated : int;
  (* One cell per delivered update, its time. *)
  update_times : Column.Floats.t;
  damped_series : Timeseries.t;
  mutable damped_now : int;
  mutable suppress_events : int;
  mutable peak_penalty : float;
  (* One row per reuse release across two columns, in the order
     [log_reuse] keeps: its time, and its router, peer and noisy flag
     packed by [pack]. *)
  reuse_times : Column.Floats.t;
  reuse_ids : Column.Ints.t;
  probes : (int * int, Timeseries.t) Hashtbl.t;
  (* Oracle-state accounting: running balances of the timer machinery,
     maintained from the MRAI and reuse-timer lifecycle hooks. *)
  mutable mrai_pending_now : int;
  mutable flush_armed_now : int;
  mutable reuse_timers_now : int;
  mutable mrai_queued_events : int;
  mutable last_mrai : float option;
  mutable last_timer : float option;
}

let create ?(probe_pairs = []) () =
  (* Unrandomized: results marshal this table, seed included, so a
     randomized one (OCAMLRUNPARAM=R) would change every digest. *)
  let probes = Hashtbl.create ~random:false (max 1 (List.length probe_pairs)) in
  List.iter
    (fun (router, peer) ->
      Hashtbl.replace probes (router, peer) (Timeseries.create ()))
    probe_pairs;
  {
    dropped = 0;
    duplicated = 0;
    update_times = Column.Floats.create ();
    damped_series = Timeseries.create ();
    damped_now = 0;
    suppress_events = 0;
    peak_penalty = 0.;
    reuse_times = Column.Floats.create ();
    reuse_ids = Column.Ints.create ();
    probes;
    mrai_pending_now = 0;
    flush_armed_now = 0;
    reuse_timers_now = 0;
    mrai_queued_events = 0;
    last_mrai = None;
    last_timer = None;
  }

(* Router ids sit above bit 32, peer ids in bits 1-31, the noisy flag in
   bit 0; node ids stay far below 2^30. *)
let pack ~router ~peer ~noisy = (router lsl 32) lor (peer lsl 1) lor Bool.to_int noisy
let router_of id = id lsr 32
let peer_of id = (id lsr 1) land 0x7fff_ffff
let noisy_of id = id land 1 = 1

(* Observers see same-instant events of different routers in execution
   order with one partition and in router-id order with several (see
   Par_net); tick-wheel reuses make such ties common. Everything collected
   is therefore insensitive to that order: the damped-link gauge keeps one
   sample per instant ([Timeseries.set_level]), the timer balances keep no
   history at all, and the reuse rows are kept in (time, router) order,
   each router's own releases in arrival order: a release moves ahead of
   the same-instant rows of higher routers, whose ids shift up one row
   (their times are [time] already). *)
let log_reuse t ~time ~router ~peer ~noisy =
  let ids = t.reuse_ids in
  Column.Floats.push t.reuse_times time;
  Column.Ints.push ids 0;
  let i = ref (Column.Ints.length ids - 1) in
  while
    !i > 0
    && Column.Floats.get t.reuse_times (!i - 1) = time
    && router_of (Column.Ints.get ids (!i - 1)) > router
  do
    Column.Ints.set ids !i (Column.Ints.get ids (!i - 1));
    decr i
  done;
  Column.Ints.set ids !i (pack ~router ~peer ~noisy)

let log_update t ~time =
  let n = Column.Floats.length t.update_times in
  if n > 0 && time < Column.Floats.get t.update_times (n - 1) then
    invalid_arg "Collector: deliveries must be time-ordered";
  Column.Floats.push t.update_times time

let attach t (hooks : Hooks.t) =
  hooks.Hooks.on_deliver <- (fun ~time ~src:_ ~dst:_ _ -> log_update t ~time);
  hooks.Hooks.on_drop <- (fun ~time:_ ~src:_ ~dst:_ _ -> t.dropped <- t.dropped + 1);
  hooks.Hooks.on_duplicate <-
    (fun ~time:_ ~src:_ ~dst:_ _ -> t.duplicated <- t.duplicated + 1);
  hooks.Hooks.on_suppress <-
    (fun ~time ~router:_ ~peer:_ ~prefix:_ ->
      t.suppress_events <- t.suppress_events + 1;
      t.damped_now <- t.damped_now + 1;
      Timeseries.set_level t.damped_series ~time (float_of_int t.damped_now));
  hooks.Hooks.on_reuse <-
    (fun ~time ~router ~peer ~prefix:_ ~noisy ->
      log_reuse t ~time ~router ~peer ~noisy;
      t.damped_now <- t.damped_now - 1;
      Timeseries.set_level t.damped_series ~time (float_of_int t.damped_now);
      t.reuse_timers_now <- t.reuse_timers_now - 1;
      t.last_timer <- Some time);
  hooks.Hooks.on_reuse_schedule <-
    (fun ~time ~router:_ ~peer:_ ~prefix:_ ~at:_ ->
      t.reuse_timers_now <- t.reuse_timers_now + 1;
      t.last_timer <- Some time);
  hooks.Hooks.on_mrai <-
    (fun ~time ~router:_ ~peer:_ ~prefix:_ action ->
      t.last_mrai <- Some time;
      match action with
      | Hooks.Mrai_queued ->
          t.mrai_queued_events <- t.mrai_queued_events + 1;
          t.mrai_pending_now <- t.mrai_pending_now + 1
      | Hooks.Mrai_sent | Hooks.Mrai_superseded | Hooks.Mrai_cancelled ->
          t.mrai_pending_now <- t.mrai_pending_now - 1
      | Hooks.Flush_armed -> t.flush_armed_now <- t.flush_armed_now + 1
      | Hooks.Flush_fired | Hooks.Flush_cancelled ->
          t.flush_armed_now <- t.flush_armed_now - 1);
  hooks.Hooks.on_penalty <-
    (fun ~time ~router ~peer ~prefix:_ ~penalty ->
      if penalty > t.peak_penalty then t.peak_penalty <- penalty;
      match Hashtbl.find_opt t.probes (router, peer) with
      | Some series -> Timeseries.add series ~time penalty
      | None -> ())

let trim t =
  Column.Floats.trim t.update_times;
  Column.Floats.trim t.reuse_times;
  Column.Ints.trim t.reuse_ids;
  Timeseries.trim t.damped_series;
  Hashtbl.iter (fun _ series -> Timeseries.trim series) t.probes

let probed_pairs t =
  Hashtbl.fold (fun pair _ acc -> pair :: acc) t.probes [] |> List.sort compare

(* The probe table is copied, not rebuilt, so its bucket layout (which
   the marshalled head shows) is the original's. *)
let detach t =
  let damped_series, damped_cells = Timeseries.detach t.damped_series in
  let probes = Hashtbl.copy t.probes in
  Hashtbl.filter_map_inplace (fun _ series -> Some (fst (Timeseries.detach series))) probes;
  let probe_cells =
    List.concat_map
      (fun pair -> snd (Timeseries.detach (Hashtbl.find t.probes pair)))
      (probed_pairs t)
  in
  ( {
      t with
      update_times = Column.Floats.detached t.update_times;
      reuse_times = Column.Floats.detached t.reuse_times;
      reuse_ids = Column.Ints.detached t.reuse_ids;
      damped_series;
      probes;
    },
    [ Column.Floats t.update_times; Column.Floats t.reuse_times; Column.Ints t.reuse_ids ]
    @ damped_cells @ probe_cells )

let spans t ~flap_start =
  Phases.classify ~update_times:t.update_times ~reuse_times:t.reuse_times ~flap_start

let update_count t = Column.Floats.length t.update_times
let dropped_updates t = t.dropped
let duplicated_updates t = t.duplicated
let mrai_pending_now t = t.mrai_pending_now
let flush_armed_now t = t.flush_armed_now
let reuse_timers_now t = t.reuse_timers_now
let mrai_queued_events t = t.mrai_queued_events
let last_mrai_time t = t.last_mrai
let last_timer_time t = t.last_timer

let last_update_time t =
  let n = update_count t in
  if n = 0 then None else Some (Column.Floats.get t.update_times (n - 1))

let update_times t = Column.Floats.to_array t.update_times
let damped_series t = t.damped_series
let damped_now t = t.damped_now
let peak_damped t =
  match Timeseries.max_value t.damped_series with
  | Some v -> max 0 (int_of_float v)
  | None -> 0
let suppress_events t = t.suppress_events
let reuse_events t = Column.Floats.length t.reuse_times

let noisy_reuse_events t =
  let n = ref 0 in
  Column.Ints.iter (fun id -> if noisy_of id then incr n) t.reuse_ids;
  !n

let peak_penalty t = t.peak_penalty

let first_reuse_time t =
  if reuse_events t = 0 then None else Some (Column.Floats.get t.reuse_times 0)

let reuse_times t = Column.Floats.to_array t.reuse_times

let reuse_log t =
  List.init (reuse_events t) (fun i ->
      let id = Column.Ints.get t.reuse_ids i in
      (Column.Floats.get t.reuse_times i, router_of id, peer_of id, noisy_of id))

let penalty_trace t ~router ~peer = Hashtbl.find_opt t.probes (router, peer)
