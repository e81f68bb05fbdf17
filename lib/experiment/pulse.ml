module Rng = Rfd_engine.Rng

type event = { at : float; kind : [ `Withdraw | `Announce ] }

type pattern =
  | Periodic of { pulses : int; interval : float }
  | Poisson of { pulses : int; mean_interval : float; seed : int }
  | Bursty of { bursts : int; pulses_per_burst : int; gap : float; burst_interval : float }
  | Custom of event list

let require cond msg = if not cond then invalid_arg ("Pulse: " ^ msg)

let validate_events events =
  let rec loop expected last = function
    | [] -> ()
    | { at; kind } :: rest ->
        require (at >= 0.) "times must be non-negative";
        require (at > last) "times must be strictly increasing";
        require (kind = expected) "events must alternate starting with a withdrawal";
        loop (if kind = `Withdraw then `Announce else `Withdraw) at rest
  in
  loop `Withdraw neg_infinity events;
  (match List.rev events with
  | { kind = `Withdraw; _ } :: _ -> require false "pattern must end with an announcement"
  | _ -> ());
  events

let events = function
  | Periodic { pulses; interval } ->
      require (pulses >= 0) "pulses must be non-negative";
      require (Float.is_finite interval && interval > 0.) "interval must be positive and finite";
      List.concat
        (List.init pulses (fun i ->
             let base = 2. *. float_of_int i *. interval in
             [
               { at = base; kind = `Withdraw };
               { at = base +. interval; kind = `Announce };
             ]))
  | Poisson { pulses; mean_interval; seed } ->
      require (pulses >= 0) "pulses must be non-negative";
      require
        (Float.is_finite mean_interval && mean_interval > 0.)
        "mean_interval must be positive and finite";
      let rng = Rng.create seed in
      let now = ref 0. in
      validate_events
        (List.concat
           (List.init pulses (fun i ->
                let w =
                  if i = 0 then 0.
                  else (
                    let prev = !now in
                    now := prev +. Rng.exponential rng ~mean:mean_interval;
                    (* strict progress across pulses: a zero/denormal draw
                       must not land this withdrawal on the previous
                       announcement *)
                    if !now <= prev then now := prev +. 1e-3;
                    !now)
                in
                now := w +. Rng.exponential rng ~mean:mean_interval;
                (* guarantee strict progress even for tiny exponential draws *)
                if !now <= w then now := w +. 1e-3;
                [ { at = w; kind = `Withdraw }; { at = !now; kind = `Announce } ])))
  | Bursty { bursts; pulses_per_burst; gap; burst_interval } ->
      require (bursts >= 0) "bursts must be non-negative";
      require (pulses_per_burst > 0) "pulses_per_burst must be positive";
      require
        (Float.is_finite gap && Float.is_finite burst_interval && gap > 0.
       && burst_interval > 0.)
        "gap and burst_interval must be positive and finite";
      let burst_span = 2. *. float_of_int pulses_per_burst *. burst_interval in
      List.concat
        (List.init bursts (fun b ->
             let start = float_of_int b *. (burst_span +. gap) in
             List.concat
               (List.init pulses_per_burst (fun i ->
                    let base = start +. (2. *. float_of_int i *. burst_interval) in
                    [
                      { at = base; kind = `Withdraw };
                      { at = base +. burst_interval; kind = `Announce };
                    ]))))
  | Custom events ->
      (* An empty custom pattern would silently report [final_announcement]
         as 0. and shift phase boundaries; [Periodic {pulses = 0; _}] is the
         explicit way to spell "no flaps". *)
      require (events <> []) "custom pattern must be non-empty";
      validate_events events

let final_announcement = function
  | Periodic { pulses; interval } when pulses > 0 && Float.is_finite interval && interval > 0. ->
      (* [events]' last time, computed the same way without building the
         train: scenario validation asks for it on every check. *)
      (2. *. float_of_int (pulses - 1) *. interval) +. interval
  | pattern -> ( match List.rev (events pattern) with [] -> 0. | { at; _ } :: _ -> at)

let to_intended_events pattern =
  List.map
    (fun { at; kind } ->
      {
        Intended.time = at;
        kind = (match kind with `Withdraw -> `Withdrawal | `Announce -> `Announcement);
      })
    (events pattern)

let pp ppf = function
  | Periodic { pulses; interval } -> Format.fprintf ppf "periodic %d x %gs" pulses interval
  | Poisson { pulses; mean_interval; seed } ->
      Format.fprintf ppf "poisson %d ~ %gs (seed %d)" pulses mean_interval seed
  | Bursty { bursts; pulses_per_burst; gap; burst_interval } ->
      Format.fprintf ppf "bursty %dx%d x %gs, gap %gs" bursts pulses_per_burst burst_interval
        gap
  | Custom events -> Format.fprintf ppf "custom (%d events)" (List.length events)
