type rel_pref = Better | Worse | Same_pref

type t =
  | Announce of { route : Route.t; rc : Root_cause.t option; rel_pref : rel_pref option }
  | Withdraw of { prefix : Prefix.t; rc : Root_cause.t option }

let announce ?rc ?rel_pref route = Announce { route; rc; rel_pref }
let withdraw ?rc prefix = Withdraw { prefix; rc }

let prefix = function
  | Announce { route; _ } -> Route.prefix route
  | Withdraw { prefix; _ } -> prefix

let rc = function Announce { rc; _ } -> rc | Withdraw { rc; _ } -> rc
let is_withdrawal = function Withdraw _ -> true | Announce _ -> false

let equal a b =
  a == b
  ||
  match (a, b) with
  | Announce x, Announce y ->
      Route.equal x.route y.route
      && Option.equal Root_cause.equal x.rc y.rc
      && x.rel_pref = y.rel_pref
  | Withdraw x, Withdraw y ->
      Prefix.equal x.prefix y.prefix && Option.equal Root_cause.equal x.rc y.rc
  | Announce _, Withdraw _ | Withdraw _, Announce _ -> false

let pp_rc ppf = function
  | None -> ()
  | Some rc -> Format.fprintf ppf " rc=%a" Root_cause.pp rc

let pp ppf = function
  | Announce { route; rc; _ } -> Format.fprintf ppf "A %a%a" Route.pp route pp_rc rc
  | Withdraw { prefix; rc } -> Format.fprintf ppf "W %a%a" Prefix.pp prefix pp_rc rc
