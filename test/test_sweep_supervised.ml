(* Tests for supervised sweep execution: supervision leaves the points
   unchanged, journal checkpointing, and resume-equals-uninterrupted
   (QCheck over random kill points). *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Sweep = Rfd_experiment.Sweep
module Journal = Rfd_experiment.Journal
open Rfd_bgp

let fast_config ?(seed = 42) () =
  let base =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed }
  in
  Config.with_damping Rfd_damping.Params.cisco base

let base_scenario () =
  Scenario.make ~name:"sup" ~config:(fast_config ()) (Scenario.Mesh { rows = 3; cols = 3 })

let pulses = [ 1; 2; 3 ]

(* Everything the simulation determined, in plan order — what resume
   equivalence promises to preserve bit for bit. *)
let fingerprint sweep =
  ( List.map
      (fun p -> (p.Sweep.pulses, Runner.result_digest p.Sweep.result))
      sweep.Sweep.points,
    List.map
      (fun f -> Format.asprintf "%a" Sweep.pp_failure f)
      sweep.Sweep.failures )

let with_tmp f =
  let path = Filename.temp_file "rfd-sweep" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

let test_matches_plain_run () =
  let base = base_scenario () in
  let plain = fingerprint (Sweep.run ~pulses ~jobs:1 base) in
  List.iter
    (fun jobs ->
      with_tmp (fun path ->
          let supervision =
            {
              Sweep.default_supervision with
              Sweep.journal = Some path;
              deadline = Some 300.;
              retries = 2;
            }
          in
          Alcotest.(check (pair (list (pair int string)) (list string)))
            (Printf.sprintf "journal, deadline and retries at jobs=%d" jobs)
            plain
            (fingerprint (Sweep.run ~pulses ~jobs ~supervision base))))
    [ 1; 2 ]

let test_journal_records_every_point () =
  with_tmp (fun path ->
      let base = base_scenario () in
      let supervision = { Sweep.default_supervision with Sweep.journal = Some path } in
      let sweep = Sweep.run ~pulses ~jobs:2 ~supervision base in
      Alcotest.(check int) "all points clean" (List.length pulses)
        (List.length sweep.Sweep.points);
      let loaded = Journal.load path in
      Alcotest.(check int) "no corrupt lines" 0 loaded.Journal.corrupt;
      Alcotest.(check int) "one journal entry per job" (List.length pulses)
        (Hashtbl.length loaded.Journal.entries);
      List.iter
        (fun job ->
          match Hashtbl.find_opt loaded.Journal.entries (Sweep.job_key job) with
          | Some (Journal.Result _) -> ()
          | _ -> Alcotest.failf "job pulses=%d not journalled" job.Sweep.job_pulses)
        (Sweep.plan ~pulses base))

let test_resume_from_complete_journal_runs_nothing () =
  with_tmp (fun path ->
      let base = base_scenario () in
      let supervision = { Sweep.default_supervision with Sweep.journal = Some path } in
      let first = Sweep.run ~pulses ~jobs:2 ~supervision base in
      (* Resume with a should_stop that is already true: any job that
         actually reached the supervisor would be Cancelled, so a fully
         clean result proves every job came from the journal. *)
      let supervision =
        {
          supervision with
          Sweep.resume = true;
          should_stop = (fun () -> true);
        }
      in
      let resumed = Sweep.run ~pulses ~jobs:2 ~supervision base in
      Alcotest.(check (pair (list (pair int string)) (list string)))
        "resumed sweep identical without running a job" (fingerprint first)
        (fingerprint resumed))

let resume_after_kill_at base clean k =
  (* Emulate a SIGKILL after [k] completed jobs: keep the journal's header
     plus its first [k] entries, then resume from the truncated copy. *)
  with_tmp (fun full ->
      let supervision = { Sweep.default_supervision with Sweep.journal = Some full } in
      ignore (Sweep.run ~pulses ~jobs:2 ~supervision base);
      let lines =
        let ic = open_in_bin full in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
      in
      with_tmp (fun truncated ->
          let oc = open_out_bin truncated in
          List.iteri (fun i l -> if i <= k then output_string oc (l ^ "\n")) lines;
          close_out oc;
          let supervision =
            {
              Sweep.default_supervision with
              Sweep.journal = Some truncated;
              resume = true;
            }
          in
          let resumed = Sweep.run ~pulses ~jobs:2 ~supervision base in
          clean = fingerprint resumed))

let prop_resume_equals_uninterrupted =
  let clean =
    lazy
      (let base = base_scenario () in
       (base, fingerprint (Sweep.run ~pulses ~jobs:1 base)))
  in
  QCheck.Test.make ~count:6 ~name:"resume after a kill at any point is lossless"
    QCheck.(int_range 0 (List.length pulses))
    (fun k ->
      let base, fp = Lazy.force clean in
      resume_after_kill_at base fp k)

let test_interrupted_jobs_become_failures () =
  (* should_stop is true from the monitor's first poll: the lone worker can
     hold at most one job, everything else drains as Interrupted — and an
     Interrupted job is exactly one a resumed sweep would re-run. *)
  let base = base_scenario () in
  let supervision =
    { Sweep.default_supervision with Sweep.should_stop = (fun () -> true) }
  in
  let many = List.init 12 (fun i -> (i mod 4) + 1) in
  let sweep = Sweep.run ~pulses:many ~jobs:1 ~supervision base in
  Alcotest.(check int) "every job accounted for" (List.length many)
    (List.length sweep.Sweep.points + List.length sweep.Sweep.failures);
  let interrupted =
    List.filter
      (fun f -> match f.Sweep.reason with Sweep.Interrupted -> true | _ -> false)
      sweep.Sweep.failures
  in
  Alcotest.(check bool) "queued jobs drained as Interrupted" true (interrupted <> []);
  Alcotest.(check int) "no other failure kinds" (List.length sweep.Sweep.failures)
    (List.length interrupted);
  match interrupted with
  | f :: _ ->
      let s = Format.asprintf "%a" Sweep.pp_failure f in
      Alcotest.(check bool) "printed as interrupted" true
        (let sub = "interrupted before running" in
         let n = String.length sub and m = String.length s in
         let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
         go 0)
  | [] -> ()

let test_budget_failures_classified () =
  (* A budget-exceeded run is a structured failure, not a point — and it
     still carries the scenario context. *)
  let base = base_scenario () in
  let budget = Runner.budget ~max_events:50 () in
  let sweep = Sweep.run ~pulses:[ 1 ] ~jobs:1 ~budget base in
  Alcotest.(check int) "no clean points" 0 (List.length sweep.Sweep.points);
  match sweep.Sweep.failures with
  | [ f ] ->
      (match f.Sweep.reason with
      | Sweep.Budget_exceeded _ -> ()
      | _ -> Alcotest.fail "expected Budget_exceeded");
      let s = Format.asprintf "%a" Sweep.pp_failure f in
      let contains sub =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "pp_failure names the topology" true (contains "topology=");
      Alcotest.(check bool) "pp_failure names the seed" true (contains "seed=42");
      Alcotest.(check bool) "pp_failure names the pulse count" true (contains "pulses=1")
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_crash_failures_keep_context () =
  (* make rejects the 2x2 mesh eagerly; hand-build it to crash in the runner. *)
  let bad =
    { (base_scenario ()) with
      Scenario.name = "bad";
      Scenario.topology = Scenario.Mesh { rows = 2; cols = 2 }
    }
  in
  let sweep = Sweep.run ~pulses:[ 1; 2 ] ~jobs:2 bad in
  Alcotest.(check int) "every point failed" 2 (List.length sweep.Sweep.failures);
  List.iter
    (fun f ->
      match f.Sweep.reason with
      | Sweep.Crashed _ ->
          let s = Format.asprintf "%a" Sweep.pp_failure f in
          Alcotest.(check bool)
            (Printf.sprintf "context printed for pulses=%d" f.Sweep.failed_pulses)
            true
            (String.length s > 0
            && f.Sweep.failed_topology <> ""
            &&
            let sub = Printf.sprintf "pulses=%d" f.Sweep.failed_pulses in
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0)
      | _ -> Alcotest.fail "expected Crashed")
    sweep.Sweep.failures

let suite =
  [
    Alcotest.test_case "matches plain Sweep.run" `Quick test_matches_plain_run;
    Alcotest.test_case "journal records every point" `Quick
      test_journal_records_every_point;
    Alcotest.test_case "resume from complete journal runs nothing" `Quick
      test_resume_from_complete_journal_runs_nothing;
    QCheck_alcotest.to_alcotest prop_resume_equals_uninterrupted;
    Alcotest.test_case "interrupted jobs become failures" `Quick
      test_interrupted_jobs_become_failures;
    Alcotest.test_case "budget failures classified with context" `Quick
      test_budget_failures_classified;
    Alcotest.test_case "crash failures keep context" `Quick
      test_crash_failures_keep_context;
  ]
