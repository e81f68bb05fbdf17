(* stackbench: one benchmark for the whole stack, from the event engine to
   the rfd-simd daemon.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload all --seed N [--trace 1]
     main.exe --list

   Timed runs (--trace 0) repeat the workload, each repetition in a fresh
   process, and report every end-to-end metric as a median over
   repetitions. With --trace 1 one traced repetition per workload reports
   every per-layer metric instead and writes its spans as JSON lines. The
   last line of standard output is one JSON object: correct, attempted,
   failed, metrics (named workload/metric when several workloads ran).
   The exit code is non-zero when any output check failed. *)

module Json = Rfd.Json

(* One repetition in a fresh copy of this executable, which writes its
   result to standard output with [Marshal]; the caller names the type. *)
let child_run ~workload ~seed extra =
  let exe = Sys.executable_name in
  let args = [ exe; "--child"; workload; "--seed"; string_of_int seed ] @ extra in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  set_binary_mode_in ic true;
  let result = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
  match (Unix.close_process_in ic, result) with
  | Unix.WEXITED 0, Some r -> r
  | _ -> failwith (Printf.sprintf "child repetition of %s failed" workload)

let rep (w : Registry.workload) ~seed : Rep.t =
  match w.Registry.shape with
  | Registry.Serve -> Serve.rep w ~seed
  | Registry.Single | Registry.Sweep -> child_run ~workload:w.Registry.name ~seed []

(* A floor on repetitions: every median rests on at least this many,
   however slow the host. *)
let min_reps = 5

(* Rounds run round-robin over the workloads, so a noisy stretch of a
   shared host hits every workload. After [min_reps] rounds, another
   starts while it still fits in [seconds], taking the last round's
   length as its own. *)
let run_rounds ws ~seed ~seconds =
  let reps = Hashtbl.create 8 in
  let t0 = Rep.wall () in
  let rec go round =
    let r0 = Rep.wall () in
    List.iter
      (fun (w : Registry.workload) ->
        let name = w.Registry.name in
        Hashtbl.replace reps name (rep w ~seed :: Option.value ~default:[] (Hashtbl.find_opt reps name)))
      ws;
    let now = Rep.wall () in
    if round < min_reps || now -. t0 +. (now -. r0) <= seconds then go (round + 1)
  in
  go 1;
  fun (w : Registry.workload) -> List.rev (Hashtbl.find reps w.Registry.name)

(* (metric, value, sample count) for every end-to-end metric. *)
let end_to_end (reps : Rep.t list) =
  let setup = List.concat_map (fun r -> r.Rep.setup_s) reps in
  [
    ("setup_s", Stats.median setup, List.length setup);
    ( "peak_rss_mb",
      Stats.median (List.map (fun r -> float_of_int r.Rep.rss_kb /. 1024.) reps),
      List.length reps );
  ]

let line name value unit_ n = Printf.sprintf "  %-30s %16.6g %-12s (n=%d)" name value unit_ n

(* Timings printed for the reader but not reported as metrics: on the
   reference host they drift by more than a 10% bound between sets of
   runs (README.md). The traced run reports the two throughputs as
   per-layer metrics. Only lines that carry their own information are
   printed: with one run per repetition, runs per second and run latency
   restate events per second. A tail percentile is printed only where at
   least [Stats.min_beyond] samples lie beyond it. *)
let timing_lines (reps : Rep.t list) =
  let n = List.length reps in
  let rate name unit_ f = line name (Stats.median (List.map f reps)) unit_ n in
  let all f = List.concat_map f reps in
  let pct name xs q =
    match Stats.percentile xs q with
    | Some v -> line name v "ms" (List.length xs)
    | None ->
        Printf.sprintf "  %-30s %16s %-12s (n=%d, under %d beyond)" name "-" "ms" (List.length xs)
          Stats.min_beyond
  in
  let answers = all (fun r -> r.Rep.answer_ms) in
  let hits = all (fun r -> r.Rep.hit_ms) and misses = all (fun r -> r.Rep.miss_ms) in
  (if List.for_all (fun r -> r.Rep.events > 0) reps then
     [ rate "events_per_s" "events/s" (fun r -> float_of_int r.Rep.events /. r.Rep.wall_s) ]
   else [])
  @ (if List.for_all (fun r -> r.Rep.answers > 1) reps then
       [
         rate "answers_per_s" "1/s" (fun r -> float_of_int r.Rep.answers /. r.Rep.wall_s);
         line "answer_p50_ms" (Stats.median answers) "ms" (List.length answers);
         pct "answer_p99_ms" answers 0.99;
       ]
     else [])
  @
  if misses = [] then []
  else
    [
      line "hit_p50_ms" (Stats.median hits) "ms" (List.length hits);
      pct "hit_p99_ms" hits 0.99;
      line "miss_p50_ms" (Stats.median misses) "ms" (List.length misses);
      pct "miss_p90_ms" misses 0.9;
    ]

(* A workload's results must not change between repetitions. *)
let digest_failures (reps : Rep.t list) =
  match reps with
  | [] -> []
  | first :: rest ->
      List.filter_map
        (fun (r : Rep.t) ->
          if r.Rep.digests = first.Rep.digests then None
          else Some "result digests differ between repetitions")
        rest

let unit_of name =
  match
    List.find_opt (fun m -> m.Registry.name = name) (Registry.end_to_end @ Registry.per_layer)
  with
  | Some m -> m.Registry.unit_
  | None -> invalid_arg ("unregistered metric " ^ name)

let print_metric (name, value, n) = print_endline (line name value (unit_of name) n)

type block = {
  workload : Registry.workload;
  metrics : (string * float * int) list;
  attempted : int;
  failures : string list;
}

let timed ws ~seed ~seconds =
  let reps_of = run_rounds ws ~seed ~seconds in
  List.map
    (fun (w : Registry.workload) ->
      let reps = reps_of w in
      let metrics = end_to_end reps in
      Printf.printf "%s: %d repetitions\n" w.Registry.name (List.length reps);
      List.iter print_metric metrics;
      print_endline "  not bounded (drift with the host):";
      List.iter print_endline (timing_lines reps);
      {
        workload = w;
        metrics;
        attempted = List.fold_left (fun acc r -> acc + r.Rep.attempted) 0 reps;
        failures = List.concat_map (fun r -> r.Rep.failures) reps @ digest_failures reps;
      })
    ws

let traced ws ~seed =
  List.map
    (fun (w : Registry.workload) ->
      let file =
        Filename.concat (Serve.scratch ()) (Printf.sprintf "trace-%s-%d.jsonl" w.Registry.name seed)
      in
      let r : Traced.result =
        child_run ~workload:w.Registry.name ~seed [ "--traced"; "--trace-file"; file ]
      in
      Printf.printf "%s: traced repetition, spans in %s\n" w.Registry.name file;
      List.iter print_metric r.Traced.metrics;
      {
        workload = w;
        metrics = r.Traced.metrics;
        attempted = r.Traced.attempted;
        failures = r.Traced.failures;
      })
    ws

let report blocks =
  let single = match blocks with [ _ ] -> true | _ -> false in
  let metric b (name, value, _) =
    ( (if single then name else b.workload.Registry.name ^ "/" ^ name),
      Json.Obj [ ("value", Json.Float value); ("unit", Json.String (unit_of name)) ] )
  in
  let failures = List.concat_map (fun b -> b.failures) blocks in
  List.iter (Printf.eprintf "FAILED: %s\n") failures;
  let failed = List.length failures in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int (max 1 (List.fold_left (fun acc b -> acc + b.attempted) 0 blocks)));
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.concat_map (fun b -> List.map (metric b) b.metrics) blocks));
          ]));
  if failed > 0 then exit 1

let main () =
  let workload = ref "all" and seed = ref 42 and seconds = ref 0. in
  let trace = ref 0 and list = ref false in
  let child = ref None and child_traced = ref false and trace_file = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all (default)");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        Printf.sprintf "S keep repeating while a round fits in S seconds (at least %d rounds)"
          min_reps );
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced repetition");
      ("--list", Arg.Set list, " print the workload and metric table");
      ("--child", Arg.String (fun w -> child := Some w), "NAME (internal) run one repetition");
      ("--traced", Arg.Set child_traced, " (internal) trace the child repetition");
      ("--trace-file", Arg.Set_string trace_file, "FILE (internal) the child's span file");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]";
  let find name =
    match Registry.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  if !list then List.iter print_endline (Registry.list_lines ())
  else
    match !child with
    | Some name ->
        let w = find name in
        set_binary_mode_out stdout true;
        if !child_traced then
          Marshal.to_channel stdout (Traced.run w ~seed:!seed ~trace_file:!trace_file : Traced.result) []
        else Marshal.to_channel stdout (Rep.sim w ~seed:!seed : Rep.t) []
    | None ->
        let ws = if !workload = "all" then Registry.workloads else [ find !workload ] in
        Printf.printf "# stackbench %s trace=%d\n%!"
          (Host.describe ~seed:!seed ~seconds:!seconds ~min_reps)
          !trace;
        report (if !trace = 1 then traced ws ~seed:!seed else timed ws ~seed:!seed ~seconds:!seconds)

let () = main ()
