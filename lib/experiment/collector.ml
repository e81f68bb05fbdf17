module Timeseries = Rfd_engine.Timeseries
module Hooks = Rfd_bgp.Hooks

type t = {
  mutable dropped : int;
  mutable duplicated : int;
  update_series : Timeseries.t;
  damped_series : Timeseries.t;
  mutable damped_now : int;
  mutable suppress_events : int;
  mutable peak_penalty : float;
  mutable reuse_log : (float * int * int * bool) list; (* newest first, see [log_reuse] *)
  reuse_series : Timeseries.t;
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
  let probes = Hashtbl.create (max 1 (List.length probe_pairs)) in
  List.iter
    (fun (router, peer) ->
      Hashtbl.replace probes (router, peer) (Timeseries.create ()))
    probe_pairs;
  {
    dropped = 0;
    duplicated = 0;
    update_series = Timeseries.create ();
    damped_series = Timeseries.create ();
    damped_now = 0;
    suppress_events = 0;
    peak_penalty = 0.;
    reuse_log = [];
    reuse_series = Timeseries.create ();
    probes;
    mrai_pending_now = 0;
    flush_armed_now = 0;
    reuse_timers_now = 0;
    mrai_queued_events = 0;
    last_mrai = None;
    last_timer = None;
  }

(* Observers see same-instant events of different routers in execution
   order with one partition and in router-id order with several (see
   Par_net); tick-wheel reuses make such ties common. Everything collected
   is therefore insensitive to that order: the damped-link gauge keeps one
   sample per instant ([Timeseries.set_level]), the timer balances keep no
   history at all, and the reuse log is kept in (time, router) order, each
   router's own releases in arrival order. *)
let rec log_reuse ((time, router, _, _) as entry) = function
  | ((time', router', _, _) as newer) :: older when time' = time && router' > router ->
      newer :: log_reuse entry older
  | log -> entry :: log

let attach t (hooks : Hooks.t) =
  hooks.Hooks.on_deliver <-
    (fun ~time ~src:_ ~dst:_ _ -> Timeseries.add t.update_series ~time 1.);
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
      t.reuse_log <- log_reuse (time, router, peer, noisy) t.reuse_log;
      Timeseries.add t.reuse_series ~time 1.;
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
  List.iter Timeseries.trim [ t.update_series; t.damped_series; t.reuse_series ];
  Hashtbl.iter (fun _ series -> Timeseries.trim series) t.probes

let update_count t = Timeseries.length t.update_series
let dropped_updates t = t.dropped
let duplicated_updates t = t.duplicated
let mrai_pending_now t = t.mrai_pending_now
let flush_armed_now t = t.flush_armed_now
let reuse_timers_now t = t.reuse_timers_now
let mrai_queued_events t = t.mrai_queued_events
let last_mrai_time t = t.last_mrai
let last_timer_time t = t.last_timer
let last_update_time t = Option.map fst (Timeseries.last t.update_series)
let update_series t = t.update_series
let damped_series t = t.damped_series
let damped_now t = t.damped_now
let peak_damped t =
  match Timeseries.max_value t.damped_series with
  | Some v -> max 0 (int_of_float v)
  | None -> 0
let suppress_events t = t.suppress_events
let reuse_events t = Timeseries.length t.reuse_series
let noisy_reuse_events t =
  List.fold_left (fun n (_, _, _, noisy) -> if noisy then n + 1 else n) 0 t.reuse_log
let peak_penalty t = t.peak_penalty
let first_reuse_time t = Option.map fst (Timeseries.first t.reuse_series)
let reuse_series t = t.reuse_series
let reuse_log t = List.rev t.reuse_log
let penalty_trace t ~router ~peer = Hashtbl.find_opt t.probes (router, peer)

let probed_pairs t =
  Hashtbl.fold (fun pair _ acc -> pair :: acc) t.probes [] |> List.sort compare
