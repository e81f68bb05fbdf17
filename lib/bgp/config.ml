type damping_mode = Plain | Rcn | Selective

type reuse_mode = Exact | Tick of float

type deployment = Everywhere | Nowhere | Fraction of float | Only of int list

type t = {
  mrai : float;
  mrai_jitter : float * float;
  mrai_per_peer : bool;
  withdrawal_rate_limiting : bool;
  link_delay : float;
  link_jitter : float;
  damping : Rfd_damping.Params.t option;
  damping_overrides : (int * Rfd_damping.Params.t) list;
  damping_mode : damping_mode;
  reuse_mode : reuse_mode;
  deployment : deployment;
  rcn_history : int;
  prefix_table_hint : int;
  seed : int;
}

let default =
  {
    mrai = 30.;
    mrai_jitter = (0.75, 1.0);
    mrai_per_peer = false;
    withdrawal_rate_limiting = false;
    link_delay = 0.05;
    link_jitter = 0.05;
    damping = None;
    damping_overrides = [];
    damping_mode = Plain;
    reuse_mode = Exact;
    deployment = Everywhere;
    rcn_history = 128;
    prefix_table_hint = 8;
    seed = 42;
  }

let with_damping ?(mode = Plain) ?(reuse = Exact) ?(deployment = Everywhere) params t =
  { t with damping = Some params; damping_mode = mode; reuse_mode = reuse; deployment }

let validate t =
  let lo, hi = t.mrai_jitter in
  if (not (Float.is_finite t.mrai)) || t.mrai < 0. then
    Error "mrai must be finite and non-negative"
  else if not (Float.is_finite lo && Float.is_finite hi) then
    Error "mrai_jitter bounds must be finite"
  else if lo <= 0. || hi < lo then Error "mrai_jitter must satisfy 0 < lo <= hi"
  else if not (t.link_delay > 0.) then Error "link_delay must be positive"
  else if not (Float.is_finite t.link_delay) then Error "link_delay must be finite"
  else if not (Float.is_finite t.link_jitter) then Error "link_jitter must be finite"
  else if t.link_jitter < 0. then Error "link_jitter must be non-negative"
  else if t.rcn_history <= 0 then Error "rcn_history must be positive"
  else if t.prefix_table_hint <= 0 then Error "prefix_table_hint must be positive"
  else if
    match t.reuse_mode with
    | Exact -> false
    | Tick tick -> (not (Float.is_finite tick)) || tick <= 0.
  then Error "reuse tick must be positive and finite"
  else
    let override_error =
      List.fold_left
        (fun acc (node, params) ->
          match acc with
          | Some _ -> acc
          | None -> (
              if node < 0 then Some "damping override for negative router id"
              else
                match Rfd_damping.Params.validate params with
                | Error e -> Some ("damping override params: " ^ e)
                | Ok () -> None))
        None t.damping_overrides
    in
    match override_error with
    | Some e -> Error e
    | None -> (
        match (t.damping, t.deployment) with
        | Some params, _ -> (
            match Rfd_damping.Params.validate params with
            | Error e -> Error ("damping params: " ^ e)
            | Ok () -> (
                match t.deployment with
                | Fraction f when not (f >= 0. && f <= 1.) ->
                    Error "deployment fraction outside [0,1]"
                | _ -> Ok ()))
        | None, _ -> Ok ())
