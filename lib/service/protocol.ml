(* The pure half of the rfd-svc/1 wire protocol: line grammar, query-spec
   elaboration, response bodies. No I/O here — Server and Client own the
   sockets — which is what makes every parser and renderer unit-testable
   and the hit/miss byte-identity an inspectable property of
   [result_body] rather than of socket plumbing. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Journal = Rfd_experiment.Journal
module Sweep = Rfd_experiment.Sweep
module Json = Rfd_experiment.Json
module Config = Rfd_bgp.Config
module Params = Rfd_damping.Params
module Builders = Rfd_topology.Builders

let version = "rfd-svc/1"

type topo =
  | Mesh of { rows : int; cols : int }
  | Internet of { nodes : int; m : int }
  | Line of int
  | Ring of int
  | Clique of int

type damping = No_damping | Cisco | Juniper

type spec = {
  topology : topo;
  damping : damping;
  mode : Config.damping_mode;
  policy : Scenario.policy_kind;
  pulses : int;
  interval : float;
  mrai : float;
  seed : int;
  isp : int;
  table_hint : int;
  reuse_tick : float option;
  background : int;
  flappers : int;
  flaps : int;
  flap_gap : float;
  flap_alpha : float;
  flap_seed : int;
}

let default_spec =
  {
    topology = Mesh { rows = 10; cols = 10 };
    damping = Cisco;
    mode = Config.Plain;
    policy = Scenario.Announce_all;
    pulses = 1;
    interval = 60.;
    mrai = 30.;
    seed = 42;
    isp = 0;
    table_hint = Config.default.Config.prefix_table_hint;
    reuse_tick = None;
    background = 0;
    flappers = 0;
    flaps = 3;
    flap_gap = 60.;
    flap_alpha = 1.5;
    flap_seed = 1;
  }

let max_nodes = Rfd_topology.Edge_list.max_nodes
let max_pulses = 10_000
let max_background = 200_000
let max_flappers = 10_000
let max_workload_events = 1_000_000

(* ------------------------------------------------------------------ *)
(* Scalar round-trips                                                  *)

(* %.17g is lossless for every finite float, so a spec survives
   client -> line -> server with its exact bits — anything less would
   let two byte-different scenarios print as the same query. *)
let float_str f = Printf.sprintf "%.17g" f

let topo_to_string = function
  | Mesh { rows; cols } -> Printf.sprintf "mesh:%dx%d" rows cols
  | Internet { nodes; m } -> Printf.sprintf "internet:%d,%d" nodes m
  | Line n -> Printf.sprintf "line:%d" n
  | Ring n -> Printf.sprintf "ring:%d" n
  | Clique n -> Printf.sprintf "clique:%d" n

let topo_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad topology %S (expected mesh:RxC, internet:N[,M], line:N, ring:N or \
          clique:N)"
         s)
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "mesh" -> (
          match String.split_on_char 'x' rest with
          | [ r; c ] -> (
              match (int_of_string_opt r, int_of_string_opt c) with
              | Some rows, Some cols -> Ok (Mesh { rows; cols })
              | _ -> fail ())
          | _ -> fail ())
      | "internet" -> (
          match String.split_on_char ',' rest with
          | [ n ] -> (
              match int_of_string_opt n with
              | Some nodes -> Ok (Internet { nodes; m = 2 })
              | None -> fail ())
          | [ n; m ] -> (
              match (int_of_string_opt n, int_of_string_opt m) with
              | Some nodes, Some m -> Ok (Internet { nodes; m })
              | _ -> fail ())
          | _ -> fail ())
      | "line" | "ring" | "clique" -> (
          match int_of_string_opt rest with
          | Some n ->
              Ok
                (match kind with
                | "line" -> Line n
                | "ring" -> Ring n
                | _ -> Clique n)
          | None -> fail ())
      | _ -> fail ())

let damping_to_string = function
  | No_damping -> "none"
  | Cisco -> "cisco"
  | Juniper -> "juniper"

let damping_of_string = function
  | "none" | "off" -> Ok No_damping
  | "cisco" -> Ok Cisco
  | "juniper" -> Ok Juniper
  | s -> Error (Printf.sprintf "unknown damping preset %S" s)

let mode_to_string = function
  | Config.Plain -> "plain"
  | Config.Rcn -> "rcn"
  | Config.Selective -> "selective"

let mode_of_string = function
  | "plain" -> Ok Config.Plain
  | "rcn" -> Ok Config.Rcn
  | "selective" -> Ok Config.Selective
  | s -> Error (Printf.sprintf "unknown damping mode %S" s)

let policy_to_string = function
  | Scenario.Announce_all -> "shortest"
  | Scenario.No_valley -> "no-valley"

let policy_of_string = function
  | "shortest" -> Ok Scenario.Announce_all
  | "no-valley" -> Ok Scenario.No_valley
  | s -> Error (Printf.sprintf "unknown policy %S" s)

(* ------------------------------------------------------------------ *)
(* Spec elaboration                                                    *)

let topo_nodes = function
  | Mesh { rows; cols } ->
      if rows <= 0 || cols <= 0 then 0 else rows * cols
  | Internet { nodes; _ } -> nodes
  | Line n | Ring n | Clique n -> n

let scenario_of_spec spec =
  let nodes = topo_nodes spec.topology in
  if nodes <= 0 then
    Error (Printf.sprintf "topology %s has no nodes" (topo_to_string spec.topology))
  else if nodes > max_nodes then
    Error
      (Printf.sprintf "topology %s exceeds the %d-node admission cap"
         (topo_to_string spec.topology) max_nodes)
  else if spec.pulses > max_pulses then
    Error (Printf.sprintf "pulses=%d exceeds the %d-pulse admission cap" spec.pulses max_pulses)
  else if spec.background > max_background then
    Error
      (Printf.sprintf "background=%d exceeds the %d-prefix admission cap"
         spec.background max_background)
  else if spec.flappers > max_flappers then
    Error
      (Printf.sprintf "flappers=%d exceeds the %d-flapper admission cap"
         spec.flappers max_flappers)
  else if
    (* division form: flappers * flaps * 2 > max_workload_events without
       the multiplication, so an absurd flaps value cannot overflow *)
    spec.flappers > 0 && spec.flaps > 0
    && spec.flaps > max_workload_events / (2 * spec.flappers)
  then
    Error
      (Printf.sprintf
         "flappers=%d x flaps=%d exceeds the %d-event workload admission cap"
         spec.flappers spec.flaps max_workload_events)
  else
    let topology =
      match spec.topology with
      | Mesh { rows; cols } -> Scenario.Mesh { rows; cols }
      | Internet { nodes; m } -> Scenario.Internet { nodes; m }
      | Line n -> Scenario.Custom (Builders.line n)
      | Ring n -> Scenario.Custom (Builders.ring n)
      | Clique n -> Scenario.Custom (Builders.clique n)
    in
    let base =
      {
        Config.default with
        Config.mrai = spec.mrai;
        seed = spec.seed;
        prefix_table_hint = spec.table_hint;
      }
    in
    let reuse =
      match spec.reuse_tick with None -> Config.Exact | Some t -> Config.Tick t
    in
    let config =
      match spec.damping with
      | No_damping -> base
      | Cisco -> Config.with_damping ~mode:spec.mode ~reuse Params.cisco base
      | Juniper -> Config.with_damping ~mode:spec.mode ~reuse Params.juniper base
    in
    let workload =
      if spec.flappers = 0 then Scenario.Pulses_only
      else
        Scenario.Flappers
          {
            count = spec.flappers;
            flaps = spec.flaps;
            mean_gap = spec.flap_gap;
            alpha = spec.flap_alpha;
            seed = spec.flap_seed;
          }
    in
    match
      Scenario.make ~name:"svc" ~policy:spec.policy ~config
        ~isp:(if spec.isp < 0 then `Random else `Node spec.isp)
        ~pulses:spec.pulses ~flap_interval:spec.interval
        ~background_prefixes:spec.background ~workload topology
    with
    | scenario -> (
        (* Scenario.make checks its own arguments eagerly; validate catches
           the structural rest (config ranges, topology shape) so a bad
           query is refused before it is keyed, stored or scheduled. *)
        match Scenario.validate scenario with
        | Ok () -> Ok scenario
        | Error e -> Error e)
    | exception Invalid_argument msg -> Error msg
    | exception Failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Keying                                                              *)

let resolve_spec ~memo spec =
  match scenario_of_spec spec with
  | Error _ as e -> e
  | Ok scenario ->
      (* The memo shares one materialized graph across requests for the
         same mesh shape, or the same BA shape and seed; reset it
         occasionally so a scan of distinct topologies cannot grow it
         without bound. *)
      if Hashtbl.length memo > 64 then Hashtbl.reset memo;
      let resolved = Sweep.materialize ~memo scenario in
      Ok (resolved, Journal.job_key resolved ~seed:spec.seed ~pulses:spec.pulses)

(* ------------------------------------------------------------------ *)
(* Request grammar                                                     *)

type request = Query of spec | Stats | Ping

let parse_int name v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer for %s: %S" name v)

let parse_float name v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad number for %s: %S" name v)

let ( let* ) = Result.bind

(* One row per wire field, in render order: [print] is [None] when the
   field is omitted, [parse] sets it on the spec parsed so far. *)
type field = {
  name : string;
  print : spec -> string option;
  parse : string -> spec -> (spec, string) result;
}

let field ?(shown = fun _ -> true) name to_string of_string get set =
  {
    name;
    print = (fun spec -> if shown spec then Some (to_string (get spec)) else None);
    parse = (fun v spec -> Result.map (set spec) (of_string v));
  }

let int_field ?shown name = field ?shown name string_of_int (parse_int name)
let float_field ?shown name = field ?shown name float_str (parse_float name)

(* The flapper knobs travel together: without a flapper count they have
   nothing to parameterize, and omitting them keeps pre-workload query
   lines (and hand-typed smoke queries) byte-stable. *)
let flapping spec = spec.flappers <> 0

let fields =
  [
    field "topology" topo_to_string topo_of_string
      (fun s -> s.topology)
      (fun s topology -> { s with topology });
    field "damping" damping_to_string damping_of_string
      (fun s -> s.damping)
      (fun s damping -> { s with damping });
    field "mode" mode_to_string mode_of_string
      (fun s -> s.mode)
      (fun s mode -> { s with mode });
    field "policy" policy_to_string policy_of_string
      (fun s -> s.policy)
      (fun s policy -> { s with policy });
    int_field "pulses" (fun s -> s.pulses) (fun s pulses -> { s with pulses });
    float_field "interval" (fun s -> s.interval) (fun s interval -> { s with interval });
    float_field "mrai" (fun s -> s.mrai) (fun s mrai -> { s with mrai });
    int_field "seed" (fun s -> s.seed) (fun s seed -> { s with seed });
    int_field "isp" (fun s -> s.isp) (fun s isp -> { s with isp });
    int_field "table-hint"
      (fun s -> s.table_hint)
      (fun s table_hint -> { s with table_hint });
    field
      ~shown:(fun s -> s.reuse_tick <> None)
      "reuse-tick"
      (function Some t -> float_str t | None -> "none")
      (function
        | "none" -> Ok None
        | v -> Result.map Option.some (parse_float "reuse-tick" v))
      (fun s -> s.reuse_tick)
      (fun s reuse_tick -> { s with reuse_tick });
    int_field
      ~shown:(fun s -> s.background <> 0)
      "background"
      (fun s -> s.background)
      (fun s background -> { s with background });
    int_field ~shown:flapping "flappers"
      (fun s -> s.flappers)
      (fun s flappers -> { s with flappers });
    int_field ~shown:flapping "flaps" (fun s -> s.flaps) (fun s flaps -> { s with flaps });
    float_field ~shown:flapping "flap-gap"
      (fun s -> s.flap_gap)
      (fun s flap_gap -> { s with flap_gap });
    float_field ~shown:flapping "flap-alpha"
      (fun s -> s.flap_alpha)
      (fun s flap_alpha -> { s with flap_alpha });
    int_field ~shown:flapping "flap-seed"
      (fun s -> s.flap_seed)
      (fun s flap_seed -> { s with flap_seed });
  ]

let render_request = function
  | Stats -> version ^ " stats\n"
  | Ping -> version ^ " ping\n"
  | Query spec ->
      let tokens =
        List.filter_map
          (fun f -> Option.map (Printf.sprintf "%s=%s" f.name) (f.print spec))
          fields
      in
      Printf.sprintf "%s query %s\n" version (String.concat " " tokens)

let parse_spec tokens =
  let rec go seen spec = function
    | [] -> Ok spec
    | token :: rest -> (
        match String.index_opt token '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" token)
        | Some i -> (
            let key = String.sub token 0 i in
            let value = String.sub token (i + 1) (String.length token - i - 1) in
            if List.mem key seen then Error (Printf.sprintf "duplicate field %S" key)
            else
              match List.find_opt (fun f -> f.name = key) fields with
              | None -> Error (Printf.sprintf "unknown field %S" key)
              | Some f ->
                  let* spec = f.parse value spec in
                  go (key :: seen) spec rest))
  in
  go [] default_spec tokens

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_request line =
  match split_words (strip_cr line) with
  | v :: rest when v = version -> (
      match rest with
      | [ "stats" ] -> Ok Stats
      | [ "ping" ] -> Ok Ping
      | "query" :: tokens ->
          let* spec = parse_spec tokens in
          Ok (Query spec)
      | cmd :: _ -> Error (Printf.sprintf "unknown command %S" cmd)
      | [] -> Error "missing command")
  | v :: _ -> Error (Printf.sprintf "unsupported protocol %S (want %s)" v version)
  | [] -> Error "empty request"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

type error_code =
  | Invalid
  | Overloaded
  | Crashed
  | Timeout
  | Shutting_down
  | Wrong_shard

let error_code_to_string = function
  | Invalid -> "invalid"
  | Overloaded -> "overloaded"
  | Crashed -> "crashed"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting-down"
  | Wrong_shard -> "wrong-shard"

let error_code_of_string = function
  | "invalid" -> Some Invalid
  | "overloaded" -> Some Overloaded
  | "crashed" -> Some Crashed
  | "timeout" -> Some Timeout
  | "shutting-down" -> Some Shutting_down
  | "wrong-shard" -> Some Wrong_shard
  | _ -> None

type response =
  | Result of { cached : bool; body : string }
  | Stats of string
  | Pong
  | Refused of { code : error_code; body : string }

let render_response = function
  | Result { cached; body } ->
      Printf.sprintf "%s ok %s %s\n" version (if cached then "hit" else "miss") body
  | Stats body -> Printf.sprintf "%s ok stats %s\n" version body
  | Pong -> version ^ " ok pong\n"
  | Refused { code; body } ->
      Printf.sprintf "%s error %s %s\n" version (error_code_to_string code) body

(* The JSON body may contain spaces (error messages), so responses are
   parsed by splitting off a bounded number of framing tokens and taking
   the remainder of the line verbatim. *)
let parse_response line =
  let line = strip_cr line in
  let after prefix =
    if
      String.length line >= String.length prefix
      && String.sub line 0 (String.length prefix) = prefix
    then Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
    else None
  in
  match after (version ^ " ok hit ") with
  | Some body -> Ok (Result { cached = true; body })
  | None -> (
      match after (version ^ " ok miss ") with
      | Some body -> Ok (Result { cached = false; body })
      | None -> (
          match after (version ^ " ok stats ") with
          | Some body -> Ok (Stats body)
          | None ->
              if strip_cr line = version ^ " ok pong" then Ok Pong
              else (
                match after (version ^ " error ") with
                | Some rest -> (
                    match String.index_opt rest ' ' with
                    | Some i -> (
                        let code = String.sub rest 0 i in
                        let body =
                          String.sub rest (i + 1) (String.length rest - i - 1)
                        in
                        match error_code_of_string code with
                        | Some code -> Ok (Refused { code; body })
                        | None -> Error (Printf.sprintf "unknown error code %S" code))
                    | None -> Error "malformed error response")
                | None -> Error (Printf.sprintf "unparsable response %S" line))))

(* ------------------------------------------------------------------ *)
(* Bodies                                                              *)

let result_body ~key (r : Runner.result) =
  (* Deterministic fields only: no wall/cpu time, no heap layout. The
     body must be a pure function of the simulation outcome so that a
     cache hit, a fresh re-run and a post-restart replay all serve the
     same bytes (CI diffs them). *)
  let obj =
    Json.Obj
      [
        ("schema", Json.String version);
        ("key", Json.String key);
        ("digest", Json.String (Runner.result_digest r));
        ("pulses", Json.Int r.Runner.scenario.Scenario.pulses);
        ("seed", Json.Int r.Runner.scenario.Scenario.config.Config.seed);
        ("num_nodes", Json.Int r.Runner.num_nodes);
        ("origin", Json.Int r.Runner.origin);
        ("isp", Json.Int r.Runner.isp);
        ("tup", Json.Float r.Runner.tup);
        ("convergence_time", Json.Float r.Runner.convergence_time);
        ("time_to_stable", Json.Float r.Runner.time_to_stable);
        ("time_to_quiet", Json.Float r.Runner.time_to_quiet);
        ("final_status", Json.String (Runner.status_to_string r.Runner.final_status));
        ("initial_updates", Json.Int r.Runner.initial_updates);
        ("message_count", Json.Int r.Runner.message_count);
        ("sim_events", Json.Int r.Runner.sim_events);
        ("reuse_timer_events", Json.Int r.Runner.reuse_timer_events);
        ("peak_reuse_timers", Json.Int r.Runner.peak_reuse_timers);
      ]
  in
  String.trim (Json.to_string ~minify:true obj)

let error_body ?key ~code ~message () =
  let fields =
    [
      ("schema", Json.String version);
      ("code", Json.String (error_code_to_string code));
      ("message", Json.String message);
    ]
    @ match key with None -> [] | Some k -> [ ("key", Json.String k) ]
  in
  String.trim (Json.to_string ~minify:true (Json.Obj fields))

let outcome_response ~key ~cached = function
  | Journal.Result r -> Result { cached; body = result_body ~key r }
  | Journal.Crashed msg ->
      Refused { code = Crashed; body = error_body ~key ~code:Crashed ~message:msg () }
  | Journal.Timed_out { attempts; deadline } ->
      let message =
        Printf.sprintf "every attempt overran its %gs watchdog (%d attempt(s))"
          deadline attempts
      in
      Refused { code = Timeout; body = error_body ~key ~code:Timeout ~message () }
