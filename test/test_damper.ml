(* Tests for the penalty columns: the per-entry damping state machine. *)

module Params = Rfd_damping.Params
module Damper = Rfd_damping.Damper

let transition_t =
  Alcotest.of_pp (fun ppf -> function
    | `Ok -> Format.pp_print_string ppf "ok"
    | `Suppressed -> Format.pp_print_string ppf "suppressed")

(* Slot [index] of a penalty table under its owner's setting, with the
   suppressed flag the owner keeps, as a router keeps it in its flags
   byte. *)
type slot = {
  setting : Damper.setting;
  table : Damper.slots;
  index : int;
  mutable suppressed : bool;
}

let slot_of setting table index = { setting; table; index; suppressed = false }

(* A fresh one-slot table, under [setting] or a setting of its own. *)
let fresh_in setting = slot_of setting (Damper.slots ~capacity:1) 0
let fresh params = fresh_in (Damper.setting params)

let penalty s ~now = Damper.slot_penalty s.setting s.table s.index ~now
let reuse_time s ~now = Damper.slot_reuse_time s.setting s.table s.index ~now

let record s ~now event =
  let transition =
    Damper.slot_record s.setting s.table s.index ~now ~suppressed:s.suppressed event
  in
  if transition = `Suppressed then s.suppressed <- true;
  transition

let try_reuse s ~now =
  let answer = Damper.slot_try_reuse s.setting s.table s.index ~now in
  if answer = `Reused then s.suppressed <- false;
  answer

let event_of = function
  | 0 -> Damper.Withdrawal
  | 1 -> Damper.Reannouncement
  | _ -> Damper.Attribute_change

let test_initial () =
  let setting = Damper.setting Params.cisco in
  Alcotest.(check bool) "a setting keeps its parameters" true
    (Damper.params setting = Params.cisco);
  Alcotest.(check (float 0.)) "a setting keeps its decay rate"
    (Params.lambda Params.cisco) (Damper.lambda setting);
  let table = Damper.slots ~capacity:4 in
  for i = 0 to 3 do
    Alcotest.(check (float 0.)) "zero penalty" 0. (Damper.slot_penalty setting table i ~now:0.)
  done;
  Damper.grow table 8;
  Alcotest.(check (float 0.)) "a grown slot starts at zero" 0.
    (Damper.slot_penalty setting table 7 ~now:100.)

let test_invalid_params_rejected () =
  let bad = { Params.cisco with Params.cutoff = 1. } in
  Alcotest.check_raises "invalid"
    (Invalid_argument "Damper.setting: cutoff must exceed reuse threshold") (fun () ->
      ignore (Damper.setting bad))

let test_increments () =
  let d = fresh Params.cisco in
  Alcotest.check transition_t "withdrawal" `Ok (record d ~now:0. Damper.Withdrawal);
  Alcotest.(check (float 1e-9)) "PW applied" 1000. (penalty d ~now:0.);
  Alcotest.check transition_t "reannounce" `Ok (record d ~now:0. Damper.Reannouncement);
  Alcotest.(check (float 1e-9)) "PA is 0 for cisco" 1000. (penalty d ~now:0.);
  Alcotest.check transition_t "attr change" `Ok (record d ~now:0. Damper.Attribute_change);
  Alcotest.(check (float 1e-9)) "attr +500" 1500. (penalty d ~now:0.)

let test_suppression_transition () =
  let d = fresh Params.cisco in
  ignore (record d ~now:0. Damper.Withdrawal);
  (* penalty 2000 = cutoff: not yet over *)
  Alcotest.check transition_t "at cutoff not suppressed" `Ok (record d ~now:0. Damper.Withdrawal);
  Alcotest.check transition_t "crossing reported" `Suppressed
    (record d ~now:0. Damper.Attribute_change);
  (* further events on a suppressed slot do not report the transition again *)
  Alcotest.check transition_t "no re-transition" `Ok (record d ~now:0. Damper.Withdrawal)

let test_decay_between_events () =
  let d = fresh Params.cisco in
  ignore (record d ~now:0. Damper.Withdrawal);
  (* one half-life later the penalty is 500 *)
  Alcotest.(check (float 1e-6)) "decayed" 500. (penalty d ~now:900.);
  ignore (record d ~now:900. Damper.Withdrawal);
  Alcotest.(check (float 1e-6)) "decay then increment" 1500. (penalty d ~now:900.)

let test_penalty_cap () =
  let d = fresh Params.cisco in
  for _ = 1 to 100 do
    ignore (record d ~now:0. Damper.Withdrawal)
  done;
  Alcotest.(check (float 1e-6)) "capped at 12000" 12000. (penalty d ~now:0.)

let test_clock_monotonicity () =
  let d = fresh Params.cisco in
  ignore (record d ~now:100. Damper.Withdrawal);
  Alcotest.check_raises "backwards clock" (Invalid_argument "Damper: clock moved backwards")
    (fun () -> ignore (penalty d ~now:50.))

let test_reuse_time_and_try_reuse () =
  let d = fresh Params.cisco in
  ignore (record d ~now:0. Damper.Withdrawal);
  ignore (record d ~now:0. Damper.Withdrawal);
  ignore (record d ~now:0. Damper.Withdrawal);
  (* 3000 penalty, suppressed; the crossing is at 2 half-lives: 3000 -> 750 *)
  Alcotest.(check bool) "suppressed" true d.suppressed;
  Alcotest.(check (float 1e-6)) "reuse time 2 half-lives" 1800. (reuse_time d ~now:0.);
  (match try_reuse d ~now:900. with
  | `Not_yet t -> Alcotest.(check (float 1e-6)) "re-estimate" 1800. t
  | `Reused -> Alcotest.fail "too early to reuse");
  Alcotest.(check bool) "still suppressed" true d.suppressed;
  (match try_reuse d ~now:1801. with
  | `Reused -> ()
  | `Not_yet _ -> Alcotest.fail "should reuse after crossing");
  Alcotest.(check bool) "released" false d.suppressed

let test_charging_extends_reuse () =
  let d = fresh Params.cisco in
  ignore (record d ~now:0. Damper.Withdrawal);
  ignore (record d ~now:0. Damper.Withdrawal);
  ignore (record d ~now:0. Damper.Withdrawal);
  let t1 = reuse_time d ~now:0. in
  (* secondary charging: another update while suppressed pushes reuse out *)
  ignore (record d ~now:100. Damper.Withdrawal);
  let t2 = reuse_time d ~now:100. in
  Alcotest.(check bool) "reuse postponed" true (t2 > t1)

let test_juniper_reannouncement_counts () =
  let d = fresh Params.juniper in
  ignore (record d ~now:0. Damper.Withdrawal);
  ignore (record d ~now:0. Damper.Reannouncement);
  Alcotest.(check (float 1e-9)) "PA 1000" 2000. (penalty d ~now:0.);
  (* juniper cutoff is 3000: not suppressed yet *)
  Alcotest.(check bool) "below juniper cutoff" false d.suppressed

let prop_penalty_never_exceeds_cap =
  QCheck.Test.make ~name:"penalty <= max_penalty always" ~count:100
    QCheck.(list_of_size Gen.(0 -- 60) (pair (float_range 0. 50.) (int_range 0 2)))
    (fun steps ->
      let d = fresh Params.cisco in
      let now = ref 0. in
      List.iter
        (fun (dt, kind) ->
          now := !now +. dt;
          ignore (record d ~now:!now (event_of kind)))
        steps;
      penalty d ~now:!now <= Params.max_penalty Params.cisco +. 1e-6)

let prop_suppression_implies_cutoff_crossed =
  QCheck.Test.make ~name:"suppressed only after cutoff crossed" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (float_range 0. 200.))
    (fun dts ->
      let d = fresh Params.cisco in
      let now = ref 0. in
      let max_seen = ref 0. in
      List.iter
        (fun dt ->
          now := !now +. dt;
          ignore (record d ~now:!now Damper.Withdrawal);
          max_seen := Float.max !max_seen (penalty d ~now:!now))
        dts;
      (not d.suppressed) || !max_seen > Params.cisco.Params.cutoff)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_reading_is_pure =
  (* Reading a penalty stores nothing. Two slots take the same charges
     and reuse attempts; one is also read at arbitrary instants between
     them. Every transition, reuse answer and penalty stays bit-identical,
     so inspecting a slot can never change a run. *)
  QCheck.Test.make ~name:"reading a penalty changes nothing" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 40) (quad (float_range 0. 2000.) (int_bound 2) bool (float_range 0. 1.)))
    (fun steps ->
      let quiet = fresh Params.cisco and read = fresh Params.cisco in
      let now = ref 0. in
      List.for_all
        (fun (dt, kind, reuse_first, read_at) ->
          let before = !now in
          now := !now +. dt;
          let now = !now in
          ignore (penalty read ~now:(before +. (read_at *. dt)));
          let reuse_agrees =
            (not (reuse_first && quiet.suppressed))
            ||
            match (try_reuse quiet ~now, try_reuse read ~now) with
            | `Reused, `Reused -> true
            | `Not_yet x, `Not_yet y -> same_bits x y
            | `Reused, `Not_yet _ | `Not_yet _, `Reused -> false
          in
          let event = event_of kind in
          reuse_agrees
          && record quiet ~now event = record read ~now event
          && same_bits (penalty quiet ~now) (penalty read ~now))
        steps)

let prop_shared_setting_is_bit_identical =
  (* One setting serves every slot that damps with its parameters, as a
     network shares one per parameter set among its routers. Replaying
     an arbitrary schedule of charges and reuse attempts through a slot
     with a setting of its own, through two one-slot tables sharing one
     setting (like two routers), and through slots of multi-slot tables
     (two slots of a table under that shared setting, one of a table
     with its own) gives bit-identical penalties, transitions and reuse
     answers at every step. The multi-slot tables grow halfway through
     the schedule, as a network's penalty columns do. *)
  QCheck.Test.make ~name:"a shared setting is bit-identical across slots and tables"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (triple (float_range 0. 2000.) (int_bound 2) bool))
    (fun steps ->
      let plain = fresh Params.cisco in
      let setting = Damper.setting Params.cisco in
      let shared = Damper.slots ~capacity:6 in
      let lone_setting = Damper.setting Params.cisco in
      let lone = Damper.slots ~capacity:6 in
      let others =
        [
          fresh_in setting;
          fresh_in setting;
          slot_of setting shared 5;
          slot_of setting shared 2;
          slot_of lone_setting lone 5;
        ]
      in
      let halfway = List.length steps / 2 in
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
            (not (reuse_first && plain.suppressed))
            ||
            let at = reuse_time plain ~now in
            let answer = try_reuse plain ~now in
            let same a =
              match (answer, a) with
              | `Reused, `Reused -> true
              | `Not_yet x, `Not_yet y -> same_bits x y
              | `Reused, `Not_yet _ | `Not_yet _, `Reused -> false
            in
            List.for_all (fun s -> same_bits at (reuse_time s ~now)) others
            && List.for_all (fun s -> same (try_reuse s ~now)) others
          in
          let event = event_of kind in
          let transition = record plain ~now event in
          let p = penalty plain ~now in
          reuse_agrees
          && List.for_all
               (fun s ->
                 record s ~now event = transition
                 && same_bits p (penalty s ~now)
                 && s.suppressed = plain.suppressed)
               others
          (* slots never charged stay at zero *)
          && Damper.slot_penalty setting shared 0 ~now = 0.
          && Damper.slot_penalty lone_setting lone 3 ~now = 0.)
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
    Alcotest.test_case "charging extends reuse" `Quick test_charging_extends_reuse;
    Alcotest.test_case "juniper re-announcement penalty" `Quick test_juniper_reannouncement_counts;
    QCheck_alcotest.to_alcotest prop_penalty_never_exceeds_cap;
    QCheck_alcotest.to_alcotest prop_suppression_implies_cutoff_crossed;
    QCheck_alcotest.to_alcotest prop_reading_is_pure;
    QCheck_alcotest.to_alcotest prop_shared_setting_is_bit_identical;
  ]
