(* Tests for the supervised batch executor: input-order results, watchdog
   timeouts, crashed-worker respawn, deterministic retry, cancellation. *)

module Supervisor = Rfd_engine.Supervisor

let show_outcome show = function
  | Supervisor.Completed { value; attempts } ->
      Printf.sprintf "ok:%s@%d" (show value) attempts
  | Supervisor.Crashed { attempts; error = _ } -> Printf.sprintf "crashed@%d" attempts
  | Supervisor.Timed_out { attempts; deadline } ->
      Printf.sprintf "timeout@%d/%g" attempts deadline
  | Supervisor.Cancelled -> "cancelled"

let shows show outcomes = List.map (show_outcome show) outcomes

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_ordered_success () =
  let xs = List.init 20 Fun.id in
  (* Scrambled per-job sleeps force out-of-order completion; results must
     come back in input order regardless. *)
  let f x =
    Unix.sleepf (float_of_int (x * 7 mod 5) *. 0.002);
    x * x
  in
  let outcomes = Supervisor.supervise ~jobs:4 ~key:string_of_int f xs in
  Alcotest.(check (list string))
    "squares in input order, all first-try"
    (List.map (fun x -> Printf.sprintf "ok:%d@1" (x * x)) xs)
    (shows string_of_int outcomes)

let test_empty_input () =
  Alcotest.(check int) "empty in, empty out" 0
    (List.length (Supervisor.supervise ~key:string_of_int Fun.id []))

let test_jobs_one_still_supervises () =
  (* jobs=1 spawns a worker domain — the caller is busy being the
     monitor — so supervision features still work. *)
  let outcomes =
    Supervisor.supervise ~jobs:1 ~key:string_of_int
      (fun x -> if x = 2 then failwith "two" else x)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "jobs=1 runs and captures" [ "ok:1@1"; "crashed@1"; "ok:3@1" ]
    (shows string_of_int outcomes)

let test_timeout_fires () =
  let gate = Atomic.make false in
  let f x =
    if x = 0 then while not (Atomic.get gate) do Domain.cpu_relax () done;
    x
  in
  let outcomes =
    Supervisor.supervise ~jobs:2 ~deadline:0.15 ~poll_interval:0.02
      ~key:string_of_int f [ 0; 1; 2; 3 ]
  in
  (* Release the orphaned domain before asserting, so a failure can't leave
     a spinning domain behind for the rest of the suite. *)
  Atomic.set gate true;
  Alcotest.(check (list string))
    "wedged job times out, the rest complete"
    [ "timeout@1/0.15"; "ok:1@1"; "ok:2@1"; "ok:3@1" ]
    (shows string_of_int outcomes)

let test_timeout_then_retry_succeeds () =
  (* First attempt wedges, the retry runs clean: the job must come back
     Completed with attempts=2 while the orphaned first attempt's late
     result (if any) is discarded. *)
  let gate = Atomic.make false in
  let tries = Atomic.make 0 in
  let f x =
    if x = 0 && Atomic.fetch_and_add tries 1 = 0 then
      while not (Atomic.get gate) do Domain.cpu_relax () done;
    x + 100
  in
  let outcomes =
    Supervisor.supervise ~jobs:2 ~deadline:0.15 ~poll_interval:0.02 ~retries:1
      ~backoff_base:0.001 ~key:string_of_int f [ 0; 1 ]
  in
  Atomic.set gate true;
  Alcotest.(check (list string)) "retry after timeout" [ "ok:100@2"; "ok:101@1" ]
    (shows string_of_int outcomes)

let test_crash_worker_respawn () =
  (* Crash_worker kills the worker domain itself; with 2 seats and 3
     crashing jobs the batch only finishes if the monitor respawns seats. *)
  let outcomes =
    Supervisor.supervise ~jobs:2 ~poll_interval:0.01 ~key:string_of_int
      (fun x -> if x mod 2 = 0 then raise (Supervisor.Crash_worker "boom") else x)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list string))
    "crashes recorded, survivors complete"
    [ "crashed@1"; "ok:1@1"; "crashed@1"; "ok:3@1"; "crashed@1"; "ok:5@1" ]
    (shows string_of_int outcomes);
  List.iteri
    (fun i o ->
      match o with
      | Supervisor.Crashed { error; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "crash %d names Crash_worker" i)
            true
            (contains ~sub:"Crash_worker" error)
      | _ -> ())
    outcomes

let test_retry_determinism_across_jobs () =
  (* Every job fails its first attempt and succeeds on the retry; the
     outcome list must be identical at jobs=1 and jobs=4. *)
  let run jobs =
    let tries = Hashtbl.create 8 in
    let m = Mutex.create () in
    let f x =
      Mutex.lock m;
      let n = (try Hashtbl.find tries x with Not_found -> 0) + 1 in
      Hashtbl.replace tries x n;
      Mutex.unlock m;
      if n = 1 then failwith "flaky" else x * 10
    in
    Supervisor.supervise ~jobs ~retries:2 ~backoff_base:0.001 ~key:string_of_int f
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let sequential = shows string_of_int (run 1) in
  Alcotest.(check (list string))
    "all succeed on attempt 2"
    [ "ok:10@2"; "ok:20@2"; "ok:30@2"; "ok:40@2"; "ok:50@2"; "ok:60@2" ]
    sequential;
  Alcotest.(check (list string)) "jobs=4 matches jobs=1" sequential
    (shows string_of_int (run 4))

let test_retry_exhaustion () =
  match
    Supervisor.supervise ~jobs:1 ~retries:2 ~backoff_base:0.001
      ~key:string_of_int (fun _ -> failwith "nope") [ 7 ]
  with
  | [ Supervisor.Crashed { attempts; error } ] ->
      Alcotest.(check int) "first try + 2 retries" 3 attempts;
      Alcotest.(check bool) "last error kept" true (contains ~sub:"nope" error)
  | other -> Alcotest.failf "expected one Crashed, got %d outcome(s)" (List.length other)

let test_cancellation_drains_queue () =
  (* should_stop is true from the first poll: whatever a worker already
     picked up finishes, everything still queued is Cancelled. *)
  let outcomes =
    Supervisor.supervise ~jobs:2 ~poll_interval:0.01
      ~should_stop:(fun () -> true)
      ~key:string_of_int
      (fun x ->
        Unix.sleepf 0.03;
        x)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "every job has an outcome" 6 (List.length outcomes);
  let cancelled, completed =
    List.partition (function Supervisor.Cancelled -> true | _ -> false) outcomes
  in
  Alcotest.(check bool) "at least one job was cancelled" true (cancelled <> []);
  List.iter
    (function
      | Supervisor.Completed _ | Supervisor.Cancelled -> ()
      | o -> Alcotest.failf "unexpected outcome %s" (show_outcome string_of_int o))
    completed

let test_on_outcome_reports_each_job_once () =
  let seen = ref [] in
  let outcomes =
    Supervisor.supervise ~jobs:3 ~poll_interval:0.01
      ~on_outcome:(fun x o -> seen := (x, o) :: !seen)
      ~key:string_of_int
      (fun x -> x * 2)
      [ 1; 2; 3; 4; 5 ]
  in
  let seen = List.sort compare !seen in
  Alcotest.(check (list string))
    "hook saw every job's terminal outcome exactly once"
    (List.map2 (fun x o -> Printf.sprintf "%d:%s" x (show_outcome string_of_int o))
       [ 1; 2; 3; 4; 5 ] outcomes)
    (List.map (fun (x, o) -> Printf.sprintf "%d:%s" x (show_outcome string_of_int o)) seen)

let test_backoff_delay_deterministic () =
  let d1 = Supervisor.backoff_delay ~key:"job-a" ~attempt:3 ~base:0.05 in
  let d2 = Supervisor.backoff_delay ~key:"job-a" ~attempt:3 ~base:0.05 in
  Alcotest.(check (float 0.)) "equal args, equal delay" d1 d2;
  Alcotest.(check (float 0.)) "attempt 1 waits nothing" 0.
    (Supervisor.backoff_delay ~key:"job-a" ~attempt:1 ~base:0.05);
  (* attempt 3 = second retry: base * 2^1, jittered in [0.5, 1.5). *)
  Alcotest.(check bool) "within jitter bounds" true (d1 >= 0.05 && d1 < 0.15);
  Alcotest.(check (float 0.)) "capped at 5 s" 5.
    (Supervisor.backoff_delay ~key:"job-a" ~attempt:40 ~base:0.05);
  Alcotest.(check bool) "different keys, different jitter" true
    (Supervisor.backoff_delay ~key:"job-b" ~attempt:3 ~base:0.05 <> d1)

let test_invalid_arguments () =
  let expect name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect "negative retries" (fun () ->
      Supervisor.supervise ~retries:(-1) ~key:string_of_int Fun.id [ 1 ]);
  expect "zero deadline" (fun () ->
      Supervisor.supervise ~deadline:0. ~key:string_of_int Fun.id [ 1 ]);
  expect "zero backoff_base" (fun () ->
      Supervisor.supervise ~backoff_base:0. ~key:string_of_int Fun.id [ 1 ]);
  expect "zero poll_interval" (fun () ->
      Supervisor.supervise ~poll_interval:0. ~key:string_of_int Fun.id [ 1 ])

let suite =
  [
    Alcotest.test_case "results in input order" `Quick test_ordered_success;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "jobs=1 still supervises" `Quick test_jobs_one_still_supervises;
    Alcotest.test_case "watchdog times out a wedged job" `Quick test_timeout_fires;
    Alcotest.test_case "timeout then retry succeeds" `Quick test_timeout_then_retry_succeeds;
    Alcotest.test_case "Crash_worker kills and respawns" `Quick test_crash_worker_respawn;
    Alcotest.test_case "retry outcomes deterministic across jobs" `Quick
      test_retry_determinism_across_jobs;
    Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
    Alcotest.test_case "cancellation drains the queue" `Quick test_cancellation_drains_queue;
    Alcotest.test_case "on_outcome fires once per job" `Quick
      test_on_outcome_reports_each_job_once;
    Alcotest.test_case "backoff delay deterministic" `Quick test_backoff_delay_deterministic;
    Alcotest.test_case "invalid arguments rejected" `Quick test_invalid_arguments;
  ]
