(* The engine's worker-pool layer. Every batch of runs executes on
   Supervisor's worker domains (Sweep.execute sits on top of it), and a
   partitioned run's epochs on Par_sim's persistent workers. These are the
   pool contracts the two keep: input-order results, worker counts that
   change nothing, failures that surface only once the whole batch has
   run (the earliest first), and workers that survive them and shut down
   cleanly. *)

module Supervisor = Rfd_engine.Supervisor
module Par_sim = Rfd_engine.Par_sim
module Sim = Rfd_engine.Sim
module Scenario = Rfd_experiment.Scenario
module Sweep = Rfd_experiment.Sweep

let show = function
  | Supervisor.Completed { value; attempts = 1 } -> string_of_int value
  | Supervisor.Crashed { attempts = 1; error } -> "crashed:" ^ error
  | _ -> "unexpected outcome"

let supervise ~jobs f xs = List.map show (Supervisor.supervise ~jobs ~key:string_of_int f xs)
let crashed e = "crashed:" ^ Printexc.to_string e

(* Post one event at [time] that runs [f], on a channel of its own. *)
let post_at sim ~time f = Sim.post sim (Sim.channel sim (fun _ _ -> f ())) ~time 0

(* [parts] simulators, each holding one event at time 1 that runs [at_1 i]. *)
let epoch_sims parts at_1 =
  Array.init parts (fun i ->
      let sim = Sim.create () in
      post_at sim ~time:1. (fun () -> at_1 i);
      sim)

let lockstep t = Par_sim.lockstep ~lookahead:1. ~executed:(fun () -> 0) ~exchange:ignore t
let drains t = lockstep t = `Drained
let with_par_sim sims f =
  let t = Par_sim.create sims in
  Fun.protect ~finally:(fun () -> Par_sim.shutdown t) (fun () -> f t)

let test_default_jobs () =
  Alcotest.(check bool) "at least one worker" true (Supervisor.default_jobs () >= 1)

let test_jobs_clamped () =
  (* The most jobs ever in flight at once: one, for a clamped count. *)
  let busiest jobs =
    let running = Atomic.make 0 and peak = Atomic.make 0 in
    let f x =
      let n = Atomic.fetch_and_add running 1 + 1 in
      let rec lift () =
        let p = Atomic.get peak in
        if n > p && not (Atomic.compare_and_set peak p n) then lift ()
      in
      lift ();
      Unix.sleepf 0.002;
      Atomic.decr running;
      x
    in
    let xs = List.init 8 Fun.id in
    Alcotest.(check (list string))
      (Printf.sprintf "jobs=%d: every job ran" jobs)
      (List.map string_of_int xs) (supervise ~jobs f xs);
    Atomic.get peak
  in
  Alcotest.(check int) "zero clamps to one" 1 (busiest 0);
  Alcotest.(check int) "negative clamps to one" 1 (busiest (-3));
  Alcotest.(check bool) "an explicit count bounds the workers" true (busiest 4 <= 4)

let test_map_preserves_order () =
  (* Every seventh job crashes; each outcome stays at its input's slot. *)
  let fails x = x mod 7 = 3 in
  let xs = List.init 100 Fun.id in
  let expected =
    List.map
      (fun x -> if fails x then crashed (Failure (string_of_int x)) else string_of_int (x * x))
      xs
  in
  Alcotest.(check (list string)) "outcomes in input order" expected
    (supervise ~jobs:4 (fun x -> if fails x then failwith (string_of_int x) else x * x) xs)

let test_jobs_counts_agree () =
  let xs = List.init 37 (fun i -> i - 5) in
  let f x = if x mod 5 = 0 then failwith "five" else x * 7 mod 13 in
  let sequential = supervise ~jobs:1 f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        sequential (supervise ~jobs f xs))
    [ 2; 3; 8 ]

let test_empty_input () =
  Alcotest.(check (list string)) "a supervised empty batch" []
    (List.map show
       (Supervisor.supervise ~jobs:3 ~deadline:1. ~retries:2 ~key:string_of_int succ []));
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: Sweep.execute on no jobs" jobs)
        0
        (List.length (Sweep.execute ~jobs [])))
    [ 1; 3 ]

let test_exception_propagates () =
  (* Partition 0, the caller's, raises; it surfaces only once the slow
     partition 1 has finished the epoch too. *)
  List.iter
    (fun parts ->
      let finished = Array.init parts (fun _ -> Atomic.make false) in
      let sims =
        epoch_sims parts (fun i ->
            if i = 1 then Unix.sleepf 0.05;
            Atomic.set finished.(i) true;
            if i = 0 then failwith "boom")
      in
      with_par_sim sims (fun t ->
          Alcotest.check_raises
            (Printf.sprintf "P=%d: an event's failure surfaces" parts)
            (Failure "boom")
            (fun () -> ignore (lockstep t));
          Array.iteri
            (fun i r ->
              Alcotest.(check bool)
                (Printf.sprintf "P=%d: partition %d finished the epoch first" parts i)
                true (Atomic.get r))
            finished))
    [ 1; 3 ]

(* One sweep job: a 3x3 mesh at [pulses], or a [side] x [side] mesh built
   by hand, because [Scenario.make] refuses a mesh the runner rejects. *)
let mesh_job ?(side = 3) pulses =
  let config =
    { Rfd_bgp.Config.default with mrai = 1.; link_delay = 0.01; link_jitter = 0.01 }
  in
  let scenario = Scenario.make ~name:"pool" ~config (Scenario.Mesh { rows = 3; cols = 3 }) in
  List.hd
    (Sweep.plan ~pulses:[ pulses ]
       { scenario with Scenario.topology = Scenario.Mesh { rows = side; cols = side } })

let test_first_failure_by_input_order () =
  (* Valid jobs around two differently invalid ones: the earlier invalid
     input's exception is the one raised, at any jobs count. *)
  let good = mesh_job 1 in
  let plan = [ good; mesh_job ~side:2 1; good; mesh_job (-1); good ] in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d: the earlier invalid job's exception" jobs)
        (Invalid_argument "Runner.run: mesh needs rows, cols >= 3 (got 2x2)")
        (fun () -> ignore (Sweep.execute ~jobs plan)))
    [ 1; 4 ]

let test_pool_survives_exception () =
  (* After an epoch that raised, the same workers run the next one. *)
  List.iter
    (fun parts ->
      let later = Array.init parts (fun _ -> Atomic.make false) in
      let sims = epoch_sims parts (fun i -> if i = 0 then failwith "dead event") in
      Array.iteri (fun i sim -> post_at sim ~time:5. (fun () -> Atomic.set later.(i) true)) sims;
      with_par_sim sims (fun t ->
          (try ignore (lockstep t) with Failure _ -> ());
          Alcotest.(check bool)
            (Printf.sprintf "P=%d: drains after the failed epoch" parts)
            true (drains t);
          Array.iteri
            (fun i ran ->
              Alcotest.(check bool)
                (Printf.sprintf "P=%d: partition %d ran its later event" parts i)
                true (Atomic.get ran))
            later))
    [ 1; 3 ]

let test_multi_failure_guarantees () =
  (* Partitions 1 and [parts - 1] raise, partition 1 last of all: every
     partition still finishes the epoch, and the lowest raising
     partition's exception is re-raised, not the first to land. *)
  List.iter
    (fun parts ->
      let ran = Array.init parts (fun _ -> Atomic.make false) in
      let sims =
        epoch_sims parts (fun i ->
            if i = 1 then Unix.sleepf 0.05;
            Atomic.set ran.(i) true;
            if i = 1 || i = parts - 1 then failwith (Printf.sprintf "partition %d" i))
      in
      with_par_sim sims (fun t ->
          Alcotest.check_raises
            (Printf.sprintf "P=%d: the lowest raising partition's exception" parts)
            (Failure "partition 1")
            (fun () -> ignore (lockstep t));
          Array.iteri
            (fun i r ->
              Alcotest.(check bool)
                (Printf.sprintf "P=%d: partition %d finished the epoch" parts i)
                true (Atomic.get r))
            ran))
    [ 3; 4 ]

let test_map_result_reports_per_job () =
  (* A crashed slot carries the printed exception; a batch in which every
     job fails still returns its outcomes. *)
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d: per-job outcomes in input order" jobs)
        [ "10"; crashed (Failure "2"); "30"; crashed (Failure "4"); "50" ]
        (supervise ~jobs
           (fun x -> if x mod 2 = 0 then failwith (string_of_int x) else x * 10)
           [ 1; 2; 3; 4; 5 ]);
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d: all-failure batch returns, never raises" jobs)
        [ crashed (Failure "0"); crashed (Failure "0") ]
        (supervise ~jobs (fun _ -> failwith "0") [ 1; 2 ]))
    [ 1; 3 ]

let test_sequential_runs_inline () =
  (* One partition spawns no domain: its epoch runs on the calling domain.
     With more, partition 0 still does, and each other partition has a
     domain of its own. *)
  List.iter
    (fun parts ->
      let ran_on = Array.init parts (fun _ -> Atomic.make None) in
      with_par_sim
        (epoch_sims parts (fun i -> Atomic.set ran_on.(i) (Some (Domain.self ()))))
        (fun t ->
          Alcotest.(check bool) (Printf.sprintf "P=%d: drains" parts) true (drains t);
          let ids = Array.map Atomic.get ran_on in
          Alcotest.(check bool)
            (Printf.sprintf "P=%d: partition 0 ran on the calling domain" parts)
            true
            (ids.(0) = Some (Domain.self ()));
          Alcotest.(check int)
            (Printf.sprintf "P=%d: one domain per partition" parts)
            parts
            (List.length (List.sort_uniq compare (Array.to_list ids)))))
    [ 1; 3 ]

let test_shutdown () =
  List.iter
    (fun parts ->
      let t = Par_sim.create (epoch_sims parts ignore) in
      Alcotest.(check bool) (Printf.sprintf "P=%d: works before shutdown" parts) true (drains t);
      Par_sim.shutdown t;
      Par_sim.shutdown t;
      Alcotest.check_raises
        (Printf.sprintf "P=%d: no epochs after shutdown" parts)
        (Invalid_argument "Par_sim.lockstep: shut down")
        (fun () -> ignore (lockstep t)))
    [ 1; 2 ]

let test_shutdown_after_worker_exception () =
  (* An epoch whose events all raised must not leave shutdown hanging or
     raising: the workers survived the exceptions and join cleanly, twice. *)
  let t = Par_sim.create (epoch_sims 3 (fun _ -> failwith "boom")) in
  (try ignore (lockstep t) with Failure _ -> ());
  Par_sim.shutdown t;
  Par_sim.shutdown t;
  Alcotest.check_raises "no epochs after shutdown"
    (Invalid_argument "Par_sim.lockstep: shut down")
    (fun () -> ignore (lockstep t))

let test_lockstep_refuses_stuck_time () =
  (* At 1e300, adding the lookahead changes nothing: the epoch [T, T + L)
     would be empty and the barrier loop would repeat it forever. *)
  List.iter
    (fun parts ->
      let sims = epoch_sims parts ignore in
      post_at sims.(parts - 1) ~time:1e300 ignore;
      with_par_sim sims (fun t ->
          Alcotest.check_raises
            (Printf.sprintf "P=%d: refused at 1e300" parts)
            (Invalid_argument
               "Par_sim.lockstep: event time 1e+300 cannot advance by the 1 s lookahead")
            (fun () -> ignore (lockstep t))))
    [ 1; 2 ]

let test_reuse_across_batches () =
  (* The workers outlive an epoch: over five epochs in a row, each
     partition's events run in time order on one and the same domain. *)
  let parts = 3 in
  let log = Array.init parts (fun _ -> Atomic.make []) in
  let sims =
    Array.init parts (fun i ->
        let sim = Sim.create () in
        let ch =
          Sim.channel sim (fun _ k ->
              Atomic.set log.(i) ((k, Domain.self ()) :: Atomic.get log.(i)))
        in
        for k = 1 to 5 do
          Sim.post sim ch ~time:(float_of_int k) k
        done;
        sim)
  in
  with_par_sim sims (fun t ->
      Alcotest.(check bool) "drains" true (drains t);
      Array.iteri
        (fun i entries ->
          let entries = List.rev (Atomic.get entries) in
          Alcotest.(check (list int))
            (Printf.sprintf "partition %d: every epoch's event, in order" i)
            [ 1; 2; 3; 4; 5 ] (List.map fst entries);
          Alcotest.(check int)
            (Printf.sprintf "partition %d: one domain for every epoch" i)
            1
            (List.length (List.sort_uniq compare (List.map snd entries))))
        log)

let suite =
  [
    Alcotest.test_case "default jobs" `Quick test_default_jobs;
    Alcotest.test_case "jobs clamped to >= 1" `Quick test_jobs_clamped;
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "jobs=1 vs jobs=N agree" `Quick test_jobs_counts_agree;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "first failure by input order" `Quick test_first_failure_by_input_order;
    Alcotest.test_case "pool survives job exception" `Quick test_pool_survives_exception;
    Alcotest.test_case "multi-failure guarantees" `Quick test_multi_failure_guarantees;
    Alcotest.test_case "map_result per-job outcomes" `Quick test_map_result_reports_per_job;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_sequential_runs_inline;
    Alcotest.test_case "shutdown lifecycle" `Quick test_shutdown;
    Alcotest.test_case "lockstep refuses a time it cannot advance" `Quick
      test_lockstep_refuses_stuck_time;
    Alcotest.test_case "shutdown after worker exception" `Quick
      test_shutdown_after_worker_exception;
    Alcotest.test_case "batch reuse" `Quick test_reuse_across_batches;
  ]
