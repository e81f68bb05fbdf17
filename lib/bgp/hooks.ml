type mrai_action =
  | Mrai_queued
  | Mrai_sent
  | Mrai_superseded
  | Mrai_cancelled
  | Flush_armed
  | Flush_fired
  | Flush_cancelled

let mrai_action_to_string = function
  | Mrai_queued -> "queued"
  | Mrai_sent -> "sent"
  | Mrai_superseded -> "superseded"
  | Mrai_cancelled -> "cancelled"
  | Flush_armed -> "flush-armed"
  | Flush_fired -> "flush-fired"
  | Flush_cancelled -> "flush-cancelled"

let pp_mrai_action ppf a = Format.pp_print_string ppf (mrai_action_to_string a)

type t = {
  mutable on_send : time:float -> src:int -> dst:int -> Update.t -> unit;
  mutable on_deliver : time:float -> src:int -> dst:int -> Update.t -> unit;
  mutable on_drop : time:float -> src:int -> dst:int -> Update.t -> unit;
  mutable on_duplicate : time:float -> src:int -> dst:int -> Update.t -> unit;
  mutable on_suppress : time:float -> router:int -> peer:int -> prefix:Prefix.t -> unit;
  mutable on_reuse :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> noisy:bool -> unit;
  mutable on_reuse_schedule :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> at:float -> unit;
  mutable on_penalty :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> penalty:float -> unit;
  mutable on_best_change :
    time:float -> router:int -> prefix:Prefix.t -> best:Route.t option -> unit;
  mutable on_mrai :
    time:float -> router:int -> peer:int -> prefix:Prefix.t -> mrai_action -> unit;
}

let create () =
  {
    on_send = (fun ~time:_ ~src:_ ~dst:_ _ -> ());
    on_deliver = (fun ~time:_ ~src:_ ~dst:_ _ -> ());
    on_drop = (fun ~time:_ ~src:_ ~dst:_ _ -> ());
    on_duplicate = (fun ~time:_ ~src:_ ~dst:_ _ -> ());
    on_suppress = (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ -> ());
    on_reuse = (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ ~noisy:_ -> ());
    on_reuse_schedule = (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ ~at:_ -> ());
    on_penalty = (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ ~penalty:_ -> ());
    on_best_change = (fun ~time:_ ~router:_ ~prefix:_ ~best:_ -> ());
    on_mrai = (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ _ -> ());
  }

type event =
  | Send of { src : int; dst : int; update : Update.t }
  | Deliver of { src : int; dst : int; update : Update.t }
  | Drop of { src : int; dst : int; update : Update.t }
  | Duplicate of { src : int; dst : int; update : Update.t }
  | Suppress of { router : int; peer : int; prefix : Prefix.t }
  | Reuse of { router : int; peer : int; prefix : Prefix.t; noisy : bool }
  | Reuse_schedule of { router : int; peer : int; prefix : Prefix.t; at : float }
  | Penalty of { router : int; peer : int; prefix : Prefix.t; penalty : float }
  | Best_change of { router : int; prefix : Prefix.t; best : Route.t option }
  | Mrai of { router : int; peer : int; prefix : Prefix.t; action : mrai_action }

let owner = function
  | Send { src; _ } | Drop { src; _ } | Duplicate { src; _ } -> src
  | Deliver { dst; _ } -> dst
  | Suppress { router; _ }
  | Reuse { router; _ }
  | Reuse_schedule { router; _ }
  | Penalty { router; _ }
  | Best_change { router; _ }
  | Mrai { router; _ } ->
      router

let tap t f =
  let on_send = t.on_send
  and on_deliver = t.on_deliver
  and on_drop = t.on_drop
  and on_duplicate = t.on_duplicate
  and on_suppress = t.on_suppress
  and on_reuse = t.on_reuse
  and on_reuse_schedule = t.on_reuse_schedule
  and on_penalty = t.on_penalty
  and on_best_change = t.on_best_change
  and on_mrai = t.on_mrai in
  t.on_send <-
    (fun ~time ~src ~dst update ->
      f ~time (Send { src; dst; update });
      on_send ~time ~src ~dst update);
  t.on_deliver <-
    (fun ~time ~src ~dst update ->
      f ~time (Deliver { src; dst; update });
      on_deliver ~time ~src ~dst update);
  t.on_drop <-
    (fun ~time ~src ~dst update ->
      f ~time (Drop { src; dst; update });
      on_drop ~time ~src ~dst update);
  t.on_duplicate <-
    (fun ~time ~src ~dst update ->
      f ~time (Duplicate { src; dst; update });
      on_duplicate ~time ~src ~dst update);
  t.on_suppress <-
    (fun ~time ~router ~peer ~prefix ->
      f ~time (Suppress { router; peer; prefix });
      on_suppress ~time ~router ~peer ~prefix);
  t.on_reuse <-
    (fun ~time ~router ~peer ~prefix ~noisy ->
      f ~time (Reuse { router; peer; prefix; noisy });
      on_reuse ~time ~router ~peer ~prefix ~noisy);
  t.on_reuse_schedule <-
    (fun ~time ~router ~peer ~prefix ~at ->
      f ~time (Reuse_schedule { router; peer; prefix; at });
      on_reuse_schedule ~time ~router ~peer ~prefix ~at);
  t.on_penalty <-
    (fun ~time ~router ~peer ~prefix ~penalty ->
      f ~time (Penalty { router; peer; prefix; penalty });
      on_penalty ~time ~router ~peer ~prefix ~penalty);
  t.on_best_change <-
    (fun ~time ~router ~prefix ~best ->
      f ~time (Best_change { router; prefix; best });
      on_best_change ~time ~router ~prefix ~best);
  t.on_mrai <-
    (fun ~time ~router ~peer ~prefix action ->
      f ~time (Mrai { router; peer; prefix; action });
      on_mrai ~time ~router ~peer ~prefix action)

let emit t ~time = function
  | Send { src; dst; update } -> t.on_send ~time ~src ~dst update
  | Deliver { src; dst; update } -> t.on_deliver ~time ~src ~dst update
  | Drop { src; dst; update } -> t.on_drop ~time ~src ~dst update
  | Duplicate { src; dst; update } -> t.on_duplicate ~time ~src ~dst update
  | Suppress { router; peer; prefix } -> t.on_suppress ~time ~router ~peer ~prefix
  | Reuse { router; peer; prefix; noisy } -> t.on_reuse ~time ~router ~peer ~prefix ~noisy
  | Reuse_schedule { router; peer; prefix; at } ->
      t.on_reuse_schedule ~time ~router ~peer ~prefix ~at
  | Penalty { router; peer; prefix; penalty } -> t.on_penalty ~time ~router ~peer ~prefix ~penalty
  | Best_change { router; prefix; best } -> t.on_best_change ~time ~router ~prefix ~best
  | Mrai { router; peer; prefix; action } -> t.on_mrai ~time ~router ~peer ~prefix action

let pp_event ~time ppf event =
  let line topic fmt = Format.fprintf ppf ("[%10.3f] %-12s " ^^ fmt) time topic in
  match event with
  | Send { src; dst; update } -> line "send" "%d -> %d: %a" src dst Update.pp update
  | Deliver { src; dst; update } -> line "deliver" "%d -> %d: %a" src dst Update.pp update
  | Drop { src; dst; update } -> line "drop" "%d -> %d: %a" src dst Update.pp update
  | Duplicate { src; dst; update } -> line "duplicate" "%d -> %d: %a" src dst Update.pp update
  | Suppress { router; peer; prefix } ->
      line "suppress" "router %d suppresses peer %d for %a" router peer Prefix.pp prefix
  | Reuse { router; peer; prefix; noisy } ->
      line "reuse" "router %d reuses peer %d for %a (%s)" router peer Prefix.pp prefix
        (if noisy then "noisy" else "silent")
  | Reuse_schedule { router; peer; prefix; at } ->
      line "reuse" "router %d arms reuse timer peer %d %a fires %.2f" router peer Prefix.pp
        prefix at
  | Penalty { router; peer; prefix; penalty } ->
      line "penalty" "router %d peer %d %a penalty %.0f" router peer Prefix.pp prefix penalty
  | Best_change { router; prefix; best = Some route } ->
      line "best" "router %d: %a now via %a" router Prefix.pp prefix Route.pp route
  | Best_change { router; prefix; best = None } ->
      line "best" "router %d: %a unreachable" router Prefix.pp prefix
  | Mrai { router; peer; prefix; action } ->
      line "mrai" "router %d peer %d %a: %a" router peer Prefix.pp prefix pp_mrai_action action
