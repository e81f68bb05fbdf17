(* Tests for the per-entry damping state machine. *)

module Params = Rfd_damping.Params
module Damper = Rfd_damping.Damper

let transition_t =
  Alcotest.of_pp (fun ppf -> function
    | `Ok -> Format.pp_print_string ppf "ok"
    | `Suppressed -> Format.pp_print_string ppf "suppressed")

let test_initial () =
  let d = Damper.create Params.cisco in
  Alcotest.(check (float 0.)) "zero penalty" 0. (Damper.penalty d ~now:0.);
  Alcotest.(check bool) "not suppressed" false (Damper.suppressed d);
  Alcotest.(check int) "no events" 0 (Damper.events_recorded d)

let test_invalid_params_rejected () =
  let bad = { Params.cisco with Params.cutoff = 1. } in
  Alcotest.check_raises "invalid"
    (Invalid_argument "Damper.create: cutoff must exceed reuse threshold") (fun () ->
      ignore (Damper.create bad))

let test_increments () =
  let d = Damper.create Params.cisco in
  Alcotest.check transition_t "withdrawal" `Ok (Damper.record d ~now:0. Damper.Withdrawal);
  Alcotest.(check (float 1e-9)) "PW applied" 1000. (Damper.penalty d ~now:0.);
  Alcotest.check transition_t "reannounce" `Ok (Damper.record d ~now:0. Damper.Reannouncement);
  Alcotest.(check (float 1e-9)) "PA is 0 for cisco" 1000. (Damper.penalty d ~now:0.);
  Alcotest.check transition_t "attr change" `Ok (Damper.record d ~now:0. Damper.Attribute_change);
  Alcotest.(check (float 1e-9)) "attr +500" 1500. (Damper.penalty d ~now:0.);
  Alcotest.(check int) "three events" 3 (Damper.events_recorded d)

let test_suppression_transition () =
  let d = Damper.create Params.cisco in
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  (* penalty 2000 = cutoff: not yet over *)
  Alcotest.(check bool) "at cutoff not suppressed" false (Damper.suppressed d);
  Alcotest.check transition_t "crossing reported" `Suppressed
    (Damper.record d ~now:0. Damper.Attribute_change);
  Alcotest.(check bool) "now suppressed" true (Damper.suppressed d);
  (* further events do not report the transition again *)
  Alcotest.check transition_t "no re-transition" `Ok (Damper.record d ~now:0. Damper.Withdrawal)

let test_decay_between_events () =
  let d = Damper.create Params.cisco in
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  (* one half-life later the penalty is 500 *)
  Alcotest.(check (float 1e-6)) "decayed" 500. (Damper.penalty d ~now:900.);
  ignore (Damper.record d ~now:900. Damper.Withdrawal);
  Alcotest.(check (float 1e-6)) "decay then increment" 1500. (Damper.penalty d ~now:900.)

let test_penalty_cap () =
  let d = Damper.create Params.cisco in
  for _ = 1 to 100 do
    ignore (Damper.record d ~now:0. Damper.Withdrawal)
  done;
  Alcotest.(check (float 1e-6)) "capped at 12000" 12000. (Damper.penalty d ~now:0.)

let test_clock_monotonicity () =
  let d = Damper.create Params.cisco in
  ignore (Damper.record d ~now:100. Damper.Withdrawal);
  Alcotest.check_raises "backwards clock" (Invalid_argument "Damper: clock moved backwards")
    (fun () -> ignore (Damper.penalty d ~now:50.))

let test_reuse_time_and_try_reuse () =
  let d = Damper.create Params.cisco in
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  (* 3000 penalty, suppressed; the crossing is at 2 half-lives: 3000 -> 750 *)
  Alcotest.(check bool) "suppressed" true (Damper.suppressed d);
  Alcotest.(check (float 1e-6)) "reuse time 2 half-lives" 1800. (Damper.reuse_time d ~now:0.);
  (match Damper.try_reuse d ~now:900. with
  | `Not_yet t -> Alcotest.(check (float 1e-6)) "re-estimate" 1800. t
  | `Reused -> Alcotest.fail "too early to reuse");
  Alcotest.(check bool) "still suppressed" true (Damper.suppressed d);
  (match Damper.try_reuse d ~now:1801. with
  | `Reused -> ()
  | `Not_yet _ -> Alcotest.fail "should reuse after crossing");
  Alcotest.(check bool) "released" false (Damper.suppressed d)

let test_try_reuse_requires_suppression () =
  let d = Damper.create Params.cisco in
  Alcotest.check_raises "not suppressed"
    (Invalid_argument "Damper.try_reuse: entry is not suppressed") (fun () ->
      ignore (Damper.try_reuse d ~now:0.))

let test_charging_extends_reuse () =
  let d = Damper.create Params.cisco in
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  let t1 = Damper.reuse_time d ~now:0. in
  (* secondary charging: another update while suppressed pushes reuse out *)
  ignore (Damper.record d ~now:100. Damper.Withdrawal);
  let t2 = Damper.reuse_time d ~now:100. in
  Alcotest.(check bool) "reuse postponed" true (t2 > t1)

let test_juniper_reannouncement_counts () =
  let d = Damper.create Params.juniper in
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  ignore (Damper.record d ~now:0. Damper.Reannouncement);
  Alcotest.(check (float 1e-9)) "PA 1000" 2000. (Damper.penalty d ~now:0.);
  (* juniper cutoff is 3000: not suppressed yet *)
  Alcotest.(check bool) "below juniper cutoff" false (Damper.suppressed d)

let prop_penalty_never_exceeds_cap =
  QCheck.Test.make ~name:"penalty <= max_penalty always" ~count:100
    QCheck.(list_of_size Gen.(0 -- 60) (pair (float_range 0. 50.) (int_range 0 2)))
    (fun steps ->
      let d = Damper.create Params.cisco in
      let now = ref 0. in
      List.iter
        (fun (dt, kind) ->
          now := !now +. dt;
          let event =
            match kind with
            | 0 -> Damper.Withdrawal
            | 1 -> Damper.Reannouncement
            | _ -> Damper.Attribute_change
          in
          ignore (Damper.record d ~now:!now event))
        steps;
      Damper.penalty d ~now:!now <= Params.max_penalty Params.cisco +. 1e-6)

let prop_suppression_implies_cutoff_crossed =
  QCheck.Test.make ~name:"suppressed only after cutoff crossed" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (float_range 0. 200.))
    (fun dts ->
      let d = Damper.create Params.cisco in
      let now = ref 0. in
      let max_seen = ref 0. in
      List.iter
        (fun dt ->
          now := !now +. dt;
          ignore (Damper.record d ~now:!now Damper.Withdrawal);
          max_seen := Float.max !max_seen (Damper.penalty d ~now:!now))
        dts;
      (not (Damper.suppressed d)) || !max_seen > Params.cisco.Params.cutoff)

let test_reuse_time_requires_suppression () =
  let d = Damper.create Params.cisco in
  Alcotest.check_raises "unsuppressed entry has no reuse event"
    (Invalid_argument "Damper.reuse_time: entry is not suppressed") (fun () ->
      ignore (Damper.reuse_time d ~now:0.));
  (* one withdrawal is not enough to suppress, so the guard still holds *)
  ignore (Damper.record d ~now:0. Damper.Withdrawal);
  Alcotest.check_raises "still guarded below cutoff"
    (Invalid_argument "Damper.reuse_time: entry is not suppressed") (fun () ->
      ignore (Damper.reuse_time d ~now:0.))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Slot [index] of a penalty table, with the suppressed flag its owner keeps. *)
type slot = { table : Damper.slots; index : int; mutable suppressed : bool }

let prop_shared_cache_is_bit_identical =
  (* There is one implementation of the penalty arithmetic, over slot
     columns, and the decay-factor memo must be pure memoization. Replaying
     an arbitrary schedule of charges and reuse attempts through one-slot
     dampers (uncached, cached, and a cached sibling sharing the memo, like
     sibling RIB-In entries) and through slots of multi-slot tables (two
     sharing a memo, one without) gives bit-identical penalties,
     transitions and reuse answers at every step. The tables grow halfway
     through the schedule, as a router's columns do. *)
  QCheck.Test.make ~name:"shared decay cache is bit-identical across slots and dampers"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (triple (float_range 0. 2000.) (int_bound 2) bool))
    (fun steps ->
      let cache = Damper.cache () in
      let plain = Damper.create Params.cisco in
      let dampers = [ Damper.create ~cache Params.cisco; Damper.create ~cache Params.cisco ] in
      let shared = Damper.slots (Damper.setting ~cache:(Damper.cache ()) Params.cisco) ~capacity:6 in
      let lone = Damper.slots (Damper.setting Params.cisco) ~capacity:6 in
      let halfway = List.length steps / 2 in
      let slots =
        [
          { table = shared; index = 5; suppressed = false };
          { table = shared; index = 2; suppressed = false };
          { table = lone; index = 5; suppressed = false };
        ]
      in
      let now = ref 0. in
      List.for_all
        (fun (step, (dt, kind, reuse_first)) ->
          if step = halfway then begin
            Damper.grow shared 16;
            Damper.grow lone 16
          end;
          now := !now +. dt;
          let now = !now in
          let reuse_agrees =
            (not (reuse_first && Damper.suppressed plain))
            ||
            let at = Damper.reuse_time plain ~now in
            let at_agrees =
              List.for_all (fun d -> same_bits at (Damper.reuse_time d ~now)) dampers
              && List.for_all
                   (fun s -> same_bits at (Damper.slot_reuse_time s.table s.index ~now))
                   slots
            in
            let answer = Damper.try_reuse plain ~now in
            let same a =
              match (answer, a) with
              | `Reused, `Reused -> true
              | `Not_yet x, `Not_yet y -> same_bits x y
              | `Reused, `Not_yet _ | `Not_yet _, `Reused -> false
            in
            at_agrees
            && List.for_all (fun d -> same (Damper.try_reuse d ~now)) dampers
            && List.for_all
                 (fun s ->
                   let a = Damper.slot_try_reuse s.table s.index ~now in
                   if a = `Reused then s.suppressed <- false;
                   same a)
                 slots
          in
          let event =
            match kind with
            | 0 -> Damper.Withdrawal
            | 1 -> Damper.Reannouncement
            | _ -> Damper.Attribute_change
          in
          let transition = Damper.record plain ~now event in
          let transitions_agree =
            List.for_all (fun d -> Damper.record d ~now event = transition) dampers
            && List.for_all
                 (fun s ->
                   let t = Damper.slot_record s.table s.index ~now ~suppressed:s.suppressed event in
                   if t = `Suppressed then s.suppressed <- true;
                   t = transition)
                 slots
          in
          let p = Damper.penalty plain ~now and suppressed = Damper.suppressed plain in
          reuse_agrees && transitions_agree
          && List.for_all
               (fun d -> same_bits p (Damper.penalty d ~now) && Damper.suppressed d = suppressed)
               dampers
          && List.for_all
               (fun s ->
                 same_bits p (Damper.slot_penalty s.table s.index ~now)
                 && s.suppressed = suppressed)
               slots
          (* slots never charged stay at zero *)
          && Damper.slot_penalty shared 0 ~now = 0.
          && Damper.slot_penalty lone 3 ~now = 0.)
        (List.mapi (fun step s -> (step, s)) steps))

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial;
    Alcotest.test_case "invalid params rejected" `Quick test_invalid_params_rejected;
    Alcotest.test_case "per-event increments" `Quick test_increments;
    Alcotest.test_case "suppression transition" `Quick test_suppression_transition;
    Alcotest.test_case "exponential decay" `Quick test_decay_between_events;
    Alcotest.test_case "penalty cap" `Quick test_penalty_cap;
    Alcotest.test_case "clock monotonicity" `Quick test_clock_monotonicity;
    Alcotest.test_case "reuse time and try_reuse" `Quick test_reuse_time_and_try_reuse;
    Alcotest.test_case "try_reuse precondition" `Quick test_try_reuse_requires_suppression;
    Alcotest.test_case "reuse_time precondition" `Quick test_reuse_time_requires_suppression;
    Alcotest.test_case "charging extends reuse" `Quick test_charging_extends_reuse;
    Alcotest.test_case "juniper re-announcement penalty" `Quick test_juniper_reannouncement_counts;
    QCheck_alcotest.to_alcotest prop_penalty_never_exceeds_cap;
    QCheck_alcotest.to_alcotest prop_suppression_implies_cutoff_crossed;
    QCheck_alcotest.to_alcotest prop_shared_cache_is_bit_identical;
  ]
