(* One timed repetition of a workload, and its result record.

   Single and Sweep repetitions run in a fresh child process (`main.exe
   --child`), so the peak RSS and GC state they report belong to that
   repetition alone; the child writes the record to its standard output
   with [Marshal], which is safe because parent and child are the same
   executable. Serve repetitions start a fresh daemon instead (see
   {!Serve}). *)

module Protocol = Rfd.Svc_protocol
module Runner = Rfd.Runner
module Sweep = Rfd.Sweep

type t = {
  setup_s : float list;  (** set-up samples (plan, or daemon spawn to first pong) *)
  answers : int;  (** answers delivered *)
  answer_ms : float list;  (** latency of every answer *)
  wall_s : float;  (** interval the answers were delivered in *)
  events : int;  (** simulator events behind the answers; 0 for Serve *)
  rss_kb : int;  (** VmHWM of the process that did the work *)
  digests : string list;  (** [Runner.result_digest]s, in job order *)
  hit_ms : float list;  (** Serve only: latency of cache hits *)
  miss_ms : float list;  (** Serve only: latency of misses *)
  attempted : int;
  failures : string list;
}

let wall = Rfd.Clock.wall

let elaborate spec =
  match Protocol.scenario_of_spec spec with
  | Ok scenario -> scenario
  | Error msg -> failwith ("workload spec refused: " ^ msg)

let plan (w : Registry.workload) ~seed =
  Sweep.plan ~pulses:w.Registry.pulses ~seeds:(w.Registry.seeds seed)
    (elaborate (Registry.base_for w ~seed))

(* Seconds per call of [f], timed over enough calls to span 20 ms, so a
   set-up of a few microseconds is not lost in clock resolution. *)
let time_per_call f =
  let t0 = wall () in
  let x = f () in
  let once = wall () -. t0 in
  if once >= 0.02 then (x, once)
  else begin
    let calls = max 1 (int_of_float (0.02 /. Float.max once 1e-7)) in
    let t0 = wall () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    (x, (wall () -. t0) /. float_of_int calls)
  end

let setup_samples = 5

(* [setup_samples] set-ups, each [f ()] returning its value and its
   seconds; every value but the last goes to [discard]. *)
let sample_setup ?(discard = ignore) f =
  let rec go k acc =
    let x, s = f () in
    if k <= 1 then (x, List.rev (s :: acc))
    else begin
      discard x;
      go (k - 1) (s :: acc)
    end
  in
  go setup_samples []

let check_quiet (r : Runner.result) =
  match r.Runner.final_status with
  | Runner.Finished Rfd.Oracle.Quiet -> None
  | status ->
      Some
        (Printf.sprintf "%s seed=%d pulses=%d ended %s" r.Runner.scenario.Rfd.Scenario.name
           r.Runner.scenario.Rfd.Scenario.config.Rfd.Config.seed
           r.Runner.scenario.Rfd.Scenario.pulses
           (Runner.status_to_string status))

let sim (w : Registry.workload) ~seed =
  let jobs, setup_s = sample_setup (fun () -> time_per_call (fun () -> plan w ~seed)) in
  let t0 = wall () in
  let results =
    match w.Registry.shape with
    | Registry.Single -> List.map (fun (j : Sweep.job) -> Runner.run j.Sweep.job_scenario) jobs
    | Registry.Sweep -> Sweep.execute ~jobs:2 jobs
    | Registry.Serve -> invalid_arg "Rep.sim: Serve workloads run a daemon"
  in
  let wall_s = wall () -. t0 in
  {
    setup_s;
    answers = List.length results;
    answer_ms = List.map (fun r -> 1000. *. r.Runner.wall_seconds) results;
    wall_s;
    events = List.fold_left (fun acc r -> acc + r.Runner.sim_events) 0 results;
    rss_kb = Rfd.Procfs.peak_rss_kb ();
    digests = List.map Runner.result_digest results;
    hit_ms = [];
    miss_ms = [];
    attempted = List.length jobs;
    failures = List.filter_map check_quiet results;
  }
