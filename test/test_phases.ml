(* Tests for the four-state classifier. *)

module Phases = Rfd_experiment.Phases

let col = Rfd_engine.Column.Floats.of_array

let kind_t =
  Alcotest.of_pp Phases.pp_kind

let kinds spans = List.map (fun s -> s.Phases.kind) spans

let test_no_updates () =
  let spans =
    Phases.classify ~update_times:(col [||]) ~reuse_times:(col [||]) ~flap_start:10.
  in
  Alcotest.(check (list kind_t)) "single converged" [ Phases.Converged ] (kinds spans)

let test_charging_only () =
  let spans =
    Phases.classify
      ~update_times:(col [| 11.; 12.; 15. |])
      ~reuse_times:(col [||]) ~flap_start:10.
  in
  Alcotest.(check (list kind_t)) "charging then converged"
    [ Phases.Charging; Phases.Converged ]
    (kinds spans);
  match spans with
  | [ c; v ] ->
      Alcotest.(check (float 0.)) "charging start" 10. c.Phases.start_time;
      Alcotest.(check (float 0.)) "charging end" 15. c.Phases.end_time;
      Alcotest.(check (float 0.)) "converged start" 15. v.Phases.start_time;
      Alcotest.(check bool) "open ended" true (v.Phases.end_time = infinity)
  | _ -> Alcotest.fail "expected two spans"

let test_full_episode () =
  (* paper structure: charging 10-120, quiet, reuse at 1500, releasing tail
     to 5000 *)
  let update_times = col [| 11.; 50.; 120.; 1501.; 3000.; 5000. |] in
  let reuse_times = col [| 1500.; 2990. |] in
  let spans = Phases.classify ~update_times ~reuse_times ~flap_start:10. in
  Alcotest.(check (list kind_t)) "four states"
    [ Phases.Charging; Phases.Suppression; Phases.Releasing; Phases.Converged ]
    (kinds spans);
  (match Phases.find Phases.Suppression spans with
  | Some s ->
      Alcotest.(check (float 0.)) "suppression start" 120. s.Phases.start_time;
      Alcotest.(check (float 0.)) "suppression end at first reuse" 1500. s.Phases.end_time
  | None -> Alcotest.fail "suppression expected");
  match Phases.find Phases.Releasing spans with
  | Some s -> Alcotest.(check (float 0.)) "releasing to last update" 5000. s.Phases.end_time
  | None -> Alcotest.fail "releasing expected"

let test_totals () =
  let update_times = col [| 11.; 120.; 1501.; 5000. |] in
  let reuse_times = col [| 1500. |] in
  let spans = Phases.classify ~update_times ~reuse_times ~flap_start:10. in
  Alcotest.(check (float 1e-9)) "charging" 110. (Phases.total Phases.Charging spans);
  Alcotest.(check (float 1e-9)) "suppression" 1380. (Phases.total Phases.Suppression spans);
  Alcotest.(check (float 1e-9)) "releasing" 3500. (Phases.total Phases.Releasing spans);
  Alcotest.(check (float 0.)) "converged (infinite excluded)" 0.
    (Phases.total Phases.Converged spans)

let test_unsorted_rejected () =
  Alcotest.check_raises "unsorted" (Invalid_argument "Phases: update_times not sorted")
    (fun () ->
      ignore
        (Phases.classify ~update_times:(col [| 2.; 1. |]) ~reuse_times:(col [||])
           ~flap_start:0.))

let test_detailed_secondary_suppression () =
  (* Two busy periods after the first reuse with a long quiet gap in which
     links remain damped: the detailed view exposes a secondary suppression
     period (Figure 10(e)). *)
  let update_times = col [| 10.; 20.; 1000.; 1010.; 2000.; 2010. |] in
  let reuse_times = col [| 999.; 1999. |] in
  let damped_at _ = 5 in
  let spans =
    Phases.classify_detailed ~quiet_gap:60. ~update_times ~reuse_times ~damped_at
      ~flap_start:10. ()
  in
  Alcotest.(check (list kind_t)) "detailed spans"
    [
      Phases.Charging;
      Phases.Suppression;
      Phases.Releasing;
      Phases.Suppression;
      Phases.Releasing;
      Phases.Converged;
    ]
    (kinds spans)

let test_detailed_quiet_without_damping_is_converged () =
  let update_times = col [| 10.; 20.; 1000. |] in
  let spans =
    Phases.classify_detailed ~quiet_gap:60. ~update_times ~reuse_times:(col [| 999. |])
      ~damped_at:(fun _ -> 0) ~flap_start:10. ()
  in
  Alcotest.(check (list kind_t)) "gap is converged when nothing damped"
    [ Phases.Charging; Phases.Converged; Phases.Releasing; Phases.Converged ]
    (kinds spans)

let prop_spans_are_contiguous =
  QCheck.Test.make ~name:"principal spans tile the timeline" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 30) (float_range 10. 5000.))
        (list_of_size Gen.(0 -- 5) (float_range 10. 5000.)))
    (fun (updates, reuses) ->
      let update_times = col (Array.of_list (List.sort Float.compare updates)) in
      let reuse_times = col (Array.of_list (List.sort Float.compare reuses)) in
      let spans = Phases.classify ~update_times ~reuse_times ~flap_start:5. in
      let rec contiguous = function
        | a :: (b :: _ as rest) ->
            Float.abs (a.Phases.end_time -. b.Phases.start_time) < 1e-9 && contiguous rest
        | [ last ] -> last.Phases.end_time = infinity
        | [] -> false
      in
      (match spans with
      | first :: _ -> first.Phases.start_time = 5.
      | [] -> false)
      && contiguous spans)

let suite =
  [
    Alcotest.test_case "no updates" `Quick test_no_updates;
    Alcotest.test_case "charging only" `Quick test_charging_only;
    Alcotest.test_case "full four-state episode" `Quick test_full_episode;
    Alcotest.test_case "durations" `Quick test_totals;
    Alcotest.test_case "unsorted inputs rejected" `Quick test_unsorted_rejected;
    Alcotest.test_case "detailed secondary suppression" `Quick test_detailed_secondary_suppression;
    Alcotest.test_case "detailed quiet w/o damping" `Quick
      test_detailed_quiet_without_damping_is_converged;
    QCheck_alcotest.to_alcotest prop_spans_are_contiguous;
  ]
