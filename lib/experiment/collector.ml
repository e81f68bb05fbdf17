module Timeseries = Rfd_engine.Timeseries
module Hooks = Rfd_bgp.Hooks

type t = {
  mutable dropped : int;
  mutable duplicated : int;
  (* One cell per delivered update, its time; cells past [updates] are
     spare capacity until [trim]. *)
  mutable update_times : float array;
  mutable updates : int;
  damped_series : Timeseries.t;
  mutable damped_now : int;
  mutable suppress_events : int;
  mutable peak_penalty : float;
  (* One row per reuse release across two columns, in the order
     [log_reuse] keeps: its time, and its router, peer and noisy flag
     packed by [pack]. *)
  mutable reuse_times : float array;
  mutable reuse_ids : int array;
  mutable reuses : int;
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
    update_times = [||];
    updates = 0;
    damped_series = Timeseries.create ();
    damped_now = 0;
    suppress_events = 0;
    peak_penalty = 0.;
    reuse_times = [||];
    reuse_ids = [||];
    reuses = 0;
    probes;
    mrai_pending_now = 0;
    flush_armed_now = 0;
    reuse_timers_now = 0;
    mrai_queued_events = 0;
    last_mrai = None;
    last_timer = None;
  }

(* A column full at [used] cells, copied into one of twice the size
   (64 cells at first). *)
let grow column ~used zero =
  let bigger = Array.make (max 64 (2 * used)) zero in
  Array.blit column 0 bigger 0 used;
  bigger

(* The first [used] cells: the column itself when it has no spare ones. *)
let trimmed column used = if Array.length column = used then column else Array.sub column 0 used

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
   the same-instant rows of higher routers. *)
let log_reuse t ~time ~router ~peer ~noisy =
  let n = t.reuses in
  if n = Array.length t.reuse_times then begin
    t.reuse_times <- grow t.reuse_times ~used:n 0.;
    t.reuse_ids <- grow t.reuse_ids ~used:n 0
  end;
  let i = ref n in
  while !i > 0 && t.reuse_times.(!i - 1) = time && router_of t.reuse_ids.(!i - 1) > router do
    t.reuse_times.(!i) <- t.reuse_times.(!i - 1);
    t.reuse_ids.(!i) <- t.reuse_ids.(!i - 1);
    decr i
  done;
  t.reuse_times.(!i) <- time;
  t.reuse_ids.(!i) <- pack ~router ~peer ~noisy;
  t.reuses <- n + 1

let log_update t ~time =
  let n = t.updates in
  if n > 0 && time < t.update_times.(n - 1) then
    invalid_arg "Collector: deliveries must be time-ordered";
  if n = Array.length t.update_times then t.update_times <- grow t.update_times ~used:n 0.;
  t.update_times.(n) <- time;
  t.updates <- n + 1

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
  t.update_times <- trimmed t.update_times t.updates;
  t.reuse_times <- trimmed t.reuse_times t.reuses;
  t.reuse_ids <- trimmed t.reuse_ids t.reuses;
  Timeseries.trim t.damped_series;
  Hashtbl.iter (fun _ series -> Timeseries.trim series) t.probes

let update_count t = t.updates
let dropped_updates t = t.dropped
let duplicated_updates t = t.duplicated
let mrai_pending_now t = t.mrai_pending_now
let flush_armed_now t = t.flush_armed_now
let reuse_timers_now t = t.reuse_timers_now
let mrai_queued_events t = t.mrai_queued_events
let last_mrai_time t = t.last_mrai
let last_timer_time t = t.last_timer
let last_update_time t = if t.updates = 0 then None else Some t.update_times.(t.updates - 1)
let update_times t = trimmed t.update_times t.updates
let damped_series t = t.damped_series
let damped_now t = t.damped_now
let peak_damped t =
  match Timeseries.max_value t.damped_series with
  | Some v -> max 0 (int_of_float v)
  | None -> 0
let suppress_events t = t.suppress_events
let reuse_events t = t.reuses

let noisy_reuse_events t =
  let n = ref 0 in
  for i = 0 to t.reuses - 1 do
    if noisy_of t.reuse_ids.(i) then incr n
  done;
  !n

let peak_penalty t = t.peak_penalty
let first_reuse_time t = if t.reuses = 0 then None else Some t.reuse_times.(0)
let reuse_times t = trimmed t.reuse_times t.reuses

let reuse_log t =
  List.init t.reuses (fun i ->
      let id = t.reuse_ids.(i) in
      (t.reuse_times.(i), router_of id, peer_of id, noisy_of id))

let penalty_trace t ~router ~peer = Hashtbl.find_opt t.probes (router, peer)

let probed_pairs t =
  Hashtbl.fold (fun pair _ acc -> pair :: acc) t.probes [] |> List.sort compare
