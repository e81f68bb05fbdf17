module Rng = Rfd_engine.Rng

type link = int * int

type link_event = { at : float; link : link; action : [ `Fail | `Recover ] }
type router_event = { at : float; node : int; action : [ `Crash | `Restart ] }

type degradation = { loss : float; duplication : float }

let perfect = { loss = 0.; duplication = 0. }

type random_flaps = {
  cycles : int;
  window : float;
  down_mean : float;
  candidates : link list;
}

type t = {
  name : string;
  seed : int;
  link_events : link_event list;
  router_events : router_event list;
  random_flaps : random_flaps option;
  degradation : degradation;
  per_link_degradation : ((int * int) * degradation) list;
}

let none =
  {
    name = "none";
    seed = 0;
    link_events = [];
    router_events = [];
    random_flaps = None;
    degradation = perfect;
    per_link_degradation = [];
  }

let make ?(name = "faults") ?(seed = 0) ?(link_events = []) ?(router_events = [])
    ?random_flaps ?(degradation = perfect) ?(per_link_degradation = []) () =
  { name; seed; link_events; router_events; random_flaps; degradation; per_link_degradation }

let is_trivial t =
  t.link_events = [] && t.router_events = [] && t.random_flaps = None
  && t.degradation = perfect
  && t.per_link_degradation = []

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let check_probability what { loss; duplication } =
  let bad p = Float.is_nan p || p < 0. || p > 1. in
  if bad loss then Error (Printf.sprintf "%s: loss probability %g outside [0, 1]" what loss)
  else if bad duplication then
    Error (Printf.sprintf "%s: duplication probability %g outside [0, 1]" what duplication)
  else Ok ()

let check_link what (u, v) =
  if u < 0 || v < 0 then Error (Printf.sprintf "%s: negative node in link (%d, %d)" what u v)
  else if u = v then Error (Printf.sprintf "%s: self-loop link (%d, %d)" what u v)
  else Ok ()

let rec first_error = function
  | [] -> Ok ()
  | check :: rest -> ( match check () with Ok () -> first_error rest | Error _ as e -> e)

let validate t =
  first_error
    ([
       (fun () ->
         if
           List.for_all
             (fun (e : link_event) -> (not (Float.is_nan e.at)) && e.at >= 0.)
             t.link_events
         then Ok ()
         else Error "link event times must be non-negative");
       (fun () ->
         first_error
           (List.map (fun (e : link_event) () -> check_link "link event" e.link) t.link_events));
       (fun () ->
         if
           List.for_all
             (fun (e : router_event) -> (not (Float.is_nan e.at)) && e.at >= 0. && e.node >= 0)
             t.router_events
         then Ok ()
         else Error "router events need non-negative times and node ids");
       (fun () -> check_probability "default degradation" t.degradation);
       (fun () ->
         first_error
           (List.map
              (fun (link, deg) () ->
                match check_link "per-link degradation" link with
                | Error _ as e -> e
                | Ok () -> check_probability "per-link degradation" deg)
              t.per_link_degradation));
       (fun () ->
         match t.random_flaps with
         | None -> Ok ()
         | Some r ->
             if r.cycles < 0 then
               Error (Printf.sprintf "random flaps: cycles must be non-negative (got %d)" r.cycles)
             else if r.cycles > 0 && not (Float.is_finite r.window && r.window > 0.) then
               Error
                 (Printf.sprintf "random flaps: window must be positive and finite (got %g)"
                    r.window)
             else if r.cycles > 0 && not (Float.is_finite r.down_mean && r.down_mean > 0.) then
               Error
                 (Printf.sprintf "random flaps: down_mean must be positive and finite (got %g)"
                    r.down_mean)
             else
               first_error
                 (List.map (fun link () -> check_link "random flap candidate" link) r.candidates));
     ])

(* ------------------------------------------------------------------ *)
(* Expansion into a concrete timeline                                  *)

type event = Link of link_event | Router of router_event

let event_time = function Link e -> e.at | Router e -> e.at

let expand ?(candidates = []) t =
  (match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault_plan.expand: " ^ msg));
  let scheduled =
    List.map (fun e -> Link e) t.link_events @ List.map (fun e -> Router e) t.router_events
  in
  let generated =
    match t.random_flaps with
    | None -> []
    | Some r ->
        let pool = if r.candidates = [] then candidates else r.candidates in
        if pool = [] then
          invalid_arg
            "Fault_plan.expand: random flaps need candidate links (none in the plan, none \
             supplied)";
        let pool = Array.of_list pool in
        let rng = Rng.create t.seed in
        List.concat
          (List.init r.cycles (fun _ ->
               let link = Rng.pick rng pool in
               let start = Rng.float rng r.window in
               let outage = Rng.exponential rng ~mean:r.down_mean in
               [
                 Link { at = start; link; action = `Fail };
                 Link { at = start +. outage; link; action = `Recover };
               ]))
  in
  (* Stable sort: simultaneous events keep plan order (and a generated
     cycle's Fail precedes its Recover even for a zero-length outage). *)
  List.stable_sort
    (fun a b -> Float.compare (event_time a) (event_time b))
    (scheduled @ generated)

(* [Rng.pick] draws once from any pool, so a stand-in link yields the
   times a real candidate pool would. *)
let last_time t =
  let candidates =
    match t.random_flaps with Some { candidates = []; _ } -> [ (0, 1) ] | Some _ | None -> []
  in
  List.fold_left (fun acc e -> Float.max acc (event_time e)) 0. (expand ~candidates t)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let pp_degradation ppf { loss; duplication } =
  Format.fprintf ppf "loss=%g dup=%g" loss duplication

let pp_event ppf = function
  | Link { at; link = u, v; action } ->
      Format.fprintf ppf "%8.2f link (%d,%d) %s" at u v
        (match action with `Fail -> "fail" | `Recover -> "recover")
  | Router { at; node; action } ->
      Format.fprintf ppf "%8.2f router %d %s" at node
        (match action with `Crash -> "crash" | `Restart -> "restart")

let pp ppf t =
  Format.fprintf ppf "%s: %d link event(s), %d router event(s)%s, %a, seed=%d" t.name
    (List.length t.link_events)
    (List.length t.router_events)
    (match t.random_flaps with
    | Some r -> Printf.sprintf ", %d random flap cycle(s)" r.cycles
    | None -> "")
    pp_degradation t.degradation t.seed
