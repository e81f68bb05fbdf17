module Rng = Rfd_engine.Rng

type kind = Announce | Withdraw

type event = { time : float; prefix : int; kind : kind; origin : int option }

type t = event list

let header = "rfd-trace/1"

(* ------------------------------------------------------------------ *)
(* Structural validation                                               *)

(* [validate] checks everything that is independent of the scenario the
   trace will run in; origin-range and prefix-space checks against a
   concrete topology happen in [Scenario.validate]. *)
let validate (t : t) =
  let rec loop i last per_prefix = function
    | [] -> Ok ()
    | { time; prefix; kind = _; origin } :: rest ->
        if Float.is_nan time || not (Float.is_finite time) then
          Error (Printf.sprintf "event %d: time must be finite" i)
        else if time < 0. then
          Error (Printf.sprintf "event %d: time must be non-negative (got %g)" i time)
        else if time < last then
          Error
            (Printf.sprintf "event %d: times must be non-decreasing (%g after %g)" i time
               last)
        else if prefix < 1 then
          Error
            (Printf.sprintf
               "event %d: prefix must be >= 1 (got %d; prefix 0 is the measured origin \
                prefix)"
               i prefix)
        else if match origin with Some o -> o < 0 | None -> false then
          Error
            (Printf.sprintf "event %d: origin must be non-negative (got %d)" i
               (Option.get origin))
        else begin
          match Hashtbl.find_opt per_prefix prefix with
          | Some t when time <= t ->
              Error
                (Printf.sprintf
                   "event %d: times for prefix %d must be strictly increasing (%g after \
                    %g)"
                   i prefix time t)
          | Some _ | None ->
              Hashtbl.replace per_prefix prefix time;
              loop (i + 1) time per_prefix rest
        end
  in
  loop 1 0. (Hashtbl.create 64) t

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)

(* Line-oriented MRT-like text:

     rfd-trace/1
     # comment
     <time> <prefix> announce|withdraw [<origin>]

   The header line is mandatory; blank lines and [#] comments are
   ignored. [origin] is the node id of the announcing/withdrawing router
   in the base topology; when omitted the event targets the scenario's
   attached origin stub. *)

let kind_to_string = function Announce -> "announce" | Withdraw -> "withdraw"

let to_string (t : t) =
  let buf = Buffer.create (256 + (List.length t * 24)) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun { time; prefix; kind; origin } ->
      (* %.17g round-trips every float exactly through [float_of_string]. *)
      Buffer.add_string buf (Printf.sprintf "%.17g %d %s" time prefix (kind_to_string kind));
      (match origin with
      | Some o -> Buffer.add_string buf (Printf.sprintf " %d" o)
      | None -> ());
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let split_fields line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let of_string s =
  let fail lineno fmt =
    Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" lineno msg)) fmt
  in
  let lines = String.split_on_char '\n' s in
  let rec skip_blank lineno = function
    | line :: rest when String.trim line = "" || String.length (String.trim line) > 0
                        && (String.trim line).[0] = '#' ->
        skip_blank (lineno + 1) rest
    | rest -> (lineno, rest)
  in
  let lineno, body = skip_blank 1 lines in
  match body with
  | [] -> Error "line 1: missing header (expected \"rfd-trace/1\")"
  | first :: _ when String.trim first <> header ->
      fail lineno "bad header %S (expected %S)" (String.trim first) header
  | _ :: rest ->
      let rec parse lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: more -> (
            let trimmed = String.trim line in
            if trimmed = "" || trimmed.[0] = '#' then parse (lineno + 1) acc more
            else
              match split_fields trimmed with
              | [ time_s; prefix_s; kind_s ] | [ time_s; prefix_s; kind_s; _ ] as fields
                -> (
                  let origin_s =
                    match fields with [ _; _; _; o ] -> Some o | _ -> None
                  in
                  match float_of_string_opt time_s with
                  | None -> fail lineno "bad time %S (expected a number)" time_s
                  | Some time -> (
                      match int_of_string_opt prefix_s with
                      | None -> fail lineno "bad prefix %S (expected an integer)" prefix_s
                      | Some prefix -> (
                          match kind_s with
                          | "announce" | "withdraw" -> (
                              let kind =
                                if kind_s = "announce" then Announce else Withdraw
                              in
                              match origin_s with
                              | None ->
                                  parse (lineno + 1)
                                    ({ time; prefix; kind; origin = None } :: acc)
                                    more
                              | Some o -> (
                                  match int_of_string_opt o with
                                  | None ->
                                      fail lineno "bad origin %S (expected an integer)" o
                                  | Some o ->
                                      parse (lineno + 1)
                                        ({ time; prefix; kind; origin = Some o } :: acc)
                                        more))
                          | other ->
                              fail lineno
                                "bad event kind %S (expected \"announce\" or \
                                 \"withdraw\")"
                                other)))
              | fields ->
                  fail lineno "expected 3 or 4 fields (time prefix kind [origin]), got %d"
                    (List.length fields))
      in
      Result.bind (parse (lineno + 1) [] rest) (fun events ->
          match validate events with
          | Ok () -> Ok events
          | Error e -> Error ("trace: " ^ e))

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let to_file path t = Out_channel.with_open_text path (fun oc ->
    Out_channel.output_string oc (to_string t))

(* ------------------------------------------------------------------ *)
(* Replay helpers                                                      *)

let last_time = function
  | [] -> 0.
  | t -> (List.nth t (List.length t - 1)).time

let event_count = List.length

let max_prefix t = List.fold_left (fun acc e -> max acc e.prefix) 0 t

let max_origin t =
  List.fold_left
    (fun acc e -> match e.origin with Some o -> max acc o | None -> acc)
    (-1) t

(* Prefixes whose first recorded event is a withdrawal were reachable when
   recording started: re-create that state by originating them (at their
   first event's origin) during the settle phase, so the withdrawal has a
   route to tear down. First-occurrence order keeps replay deterministic. *)
let pre_originations (t : t) =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc e ->
      if Hashtbl.mem seen e.prefix then acc
      else begin
        Hashtbl.replace seen e.prefix ();
        match e.kind with
        | Withdraw -> (e.origin, e.prefix) :: acc
        | Announce -> acc
      end)
    [] t
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Heavy-tailed multi-origin load generation                           *)

(* Mean gap -> Pareto scale. For [alpha > 1] the Pareto mean is
   [alpha*xmin/(alpha-1)], so this choice of [xmin] makes the sample mean
   approach [mean_gap]; for [alpha <= 1] the mean diverges and [mean_gap]
   is used as the scale directly. *)
let pareto_xmin ~alpha ~mean_gap =
  if alpha > 1. then mean_gap *. (alpha -. 1.) /. alpha else mean_gap

(* [Rng.pareto] draws [u] in [\[2^-53, 1\]], so no gap exceeds
   [xmin * 2^(53/alpha)], or the 1 ms a degenerate draw is bumped to (one
   ulp where 1 ms rounds away, far below that largest gap by then). The
   small factor covers rounding in the pow and in the running sum. *)
let flappers_horizon ~flaps ~mean_gap ~alpha =
  let largest = Float.max 1e-3 (pareto_xmin ~alpha ~mean_gap *. Float.exp2 (53. /. alpha)) in
  2. *. float_of_int flaps *. largest *. (1. +. 1e-9)

let flappers ~seed ~nodes ~count ~flaps ~mean_gap ~alpha ~first_prefix : t =
  if nodes <= 0 then invalid_arg "Trace.flappers: nodes must be positive";
  if count < 0 then invalid_arg "Trace.flappers: count must be non-negative";
  if flaps < 1 then invalid_arg "Trace.flappers: flaps must be positive";
  if not (Float.is_finite mean_gap) || mean_gap <= 0. then
    invalid_arg "Trace.flappers: mean_gap must be positive and finite";
  if not (Float.is_finite alpha) || alpha <= 0. then
    invalid_arg "Trace.flappers: alpha must be positive and finite";
  if first_prefix < 1 then invalid_arg "Trace.flappers: first_prefix must be >= 1";
  let master = Rng.create seed in
  let xmin = pareto_xmin ~alpha ~mean_gap in
  let per_flapper =
    List.init count (fun i ->
        (* Home node first, then an independent stream per flapper: the
           trace for flapper [i] depends only on [seed] and [i]. *)
        let node = Rng.int master nodes in
        let rng = Rng.split master in
        let prefix = first_prefix + i in
        let now = ref 0. in
        (* A gap that rounds away is bumped to 1 ms, or one ulp where the
           1 ms rounds away too (past about 9e12 s), so a prefix's times
           strictly increase. *)
        let step () =
          let prev = !now in
          now := prev +. Rng.pareto rng ~alpha ~xmin;
          if !now <= prev then now := Float.max (prev +. 1e-3) (Float.succ prev);
          !now
        in
        List.concat
          (List.init flaps (fun _ ->
               let w = step () in
               let a = step () in
               [
                 { time = w; prefix; kind = Withdraw; origin = Some node };
                 { time = a; prefix; kind = Announce; origin = Some node };
               ])))
  in
  (* Merge into one global non-decreasing stream. Ties across prefixes are
     broken by prefix id (per-prefix times are strictly increasing, so the
     order is total and independent of the sort algorithm). *)
  List.concat per_flapper
  |> List.stable_sort (fun a b ->
         match Float.compare a.time b.time with
         | 0 -> Int.compare a.prefix b.prefix
         | c -> c)

let pp ppf t =
  Format.fprintf ppf "trace (%d events, %d prefixes, %.1fs)" (event_count t)
    (let seen = Hashtbl.create 16 in
     List.iter (fun e -> Hashtbl.replace seen e.prefix ()) t;
     Hashtbl.length seen)
    (last_time t)
