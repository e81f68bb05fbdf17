(* Tests for protocol configuration validation and helpers. *)

open Rfd_bgp
module Params = Rfd_damping.Params

let is_err = Result.is_error

let test_default_valid () =
  Alcotest.(check bool) "default" true (Config.validate Config.default = Ok ());
  Alcotest.(check bool) "no damping by default" true (Config.default.Config.damping = None);
  Alcotest.(check (float 0.)) "30s mrai" 30. Config.default.Config.mrai

let test_with_damping () =
  let c = Config.with_damping Params.cisco Config.default in
  Alcotest.(check bool) "params installed" true (c.Config.damping = Some Params.cisco);
  Alcotest.(check bool) "plain by default" true (c.Config.damping_mode = Config.Plain);
  let c2 = Config.with_damping ~mode:Config.Rcn ~deployment:(Config.Fraction 0.5) Params.juniper Config.default in
  Alcotest.(check bool) "mode set" true (c2.Config.damping_mode = Config.Rcn);
  Alcotest.(check bool) "deployment set" true (c2.Config.deployment = Config.Fraction 0.5);
  Alcotest.(check bool) "valid" true (Config.validate c2 = Ok ())

let test_rejects_bad_fields () =
  let base = Config.default in
  Alcotest.(check bool) "negative mrai" true
    (is_err (Config.validate { base with Config.mrai = -1. }));
  Alcotest.(check bool) "NaN mrai" true
    (is_err (Config.validate { base with Config.mrai = Float.nan }));
  Alcotest.(check bool) "infinite mrai" true
    (is_err (Config.validate { base with Config.mrai = infinity }));
  Alcotest.(check bool) "bad jitter" true
    (is_err (Config.validate { base with Config.mrai_jitter = (0., 1.) }));
  Alcotest.(check bool) "inverted jitter" true
    (is_err (Config.validate { base with Config.mrai_jitter = (1.0, 0.5) }));
  Alcotest.(check bool) "zero link delay" true
    (is_err (Config.validate { base with Config.link_delay = 0. }));
  Alcotest.(check bool) "negative link jitter" true
    (is_err (Config.validate { base with Config.link_jitter = -0.1 }));
  Alcotest.(check bool) "zero rcn history" true
    (is_err (Config.validate { base with Config.rcn_history = 0 }));
  Alcotest.(check bool) "zero table hint" true
    (is_err (Config.validate { base with Config.prefix_table_hint = 0 }));
  Alcotest.(check bool) "negative table hint" true
    (is_err (Config.validate { base with Config.prefix_table_hint = -8 }));
  Alcotest.(check bool) "small table hint valid" true
    (Config.validate { base with Config.prefix_table_hint = 1 } = Ok ())

let test_rejects_bad_damping () =
  let bad_params = { Params.cisco with Params.cutoff = 1. } in
  let c = Config.with_damping bad_params Config.default in
  Alcotest.(check bool) "invalid preset" true (is_err (Config.validate c));
  let c =
    Config.with_damping ~deployment:(Config.Fraction 1.5) Params.cisco Config.default
  in
  Alcotest.(check bool) "fraction out of range" true (is_err (Config.validate c))

let test_rejects_bad_overrides () =
  let c =
    {
      (Config.with_damping Params.cisco Config.default) with
      Config.damping_overrides = [ (-1, Params.juniper) ];
    }
  in
  Alcotest.(check bool) "negative id" true (is_err (Config.validate c));
  let c =
    {
      (Config.with_damping Params.cisco Config.default) with
      Config.damping_overrides = [ (3, { Params.cisco with Params.half_life = -1. }) ];
    }
  in
  Alcotest.(check bool) "invalid override params" true (is_err (Config.validate c));
  let c =
    {
      (Config.with_damping Params.cisco Config.default) with
      Config.damping_overrides = [ (3, Params.juniper) ];
    }
  in
  Alcotest.(check bool) "valid override accepted" true (Config.validate c = Ok ())

let test_network_rejects_invalid_config () =
  let bad = { Config.default with Config.link_delay = 0. } in
  Alcotest.check_raises "surfaced" (Invalid_argument "Network.create: link_delay must be positive")
    (fun () -> ignore (Fixture.create ~config:bad (Rfd_topology.Builders.line 2)))

(* A NaN or infinite transport or MRAI parameter must be refused here:
   past validation it fails mid-run or silently changes the run. *)
let rejects label config =
  Alcotest.(check bool) label true (is_err (Config.validate config))

let test_rejects_non_finite_link_delay () =
  let base = Config.default in
  rejects "NaN link delay" { base with Config.link_delay = Float.nan };
  rejects "infinite link delay" { base with Config.link_delay = infinity }

let test_rejects_non_finite_link_jitter () =
  let base = Config.default in
  rejects "NaN link jitter" { base with Config.link_jitter = Float.nan };
  rejects "infinite link jitter" { base with Config.link_jitter = infinity }

let test_rejects_non_finite_mrai_jitter () =
  let base = Config.default in
  rejects "NaN low bound" { base with Config.mrai_jitter = (Float.nan, 1.) };
  rejects "NaN high bound" { base with Config.mrai_jitter = (0.75, Float.nan) };
  rejects "infinite high bound" { base with Config.mrai_jitter = (0.75, infinity) }

let test_rejects_nan_deployment_fraction () =
  rejects "NaN fraction"
    (Config.with_damping ~deployment:(Config.Fraction Float.nan) Params.cisco Config.default);
  Alcotest.(check bool) "fraction 0 still valid" true
    (Config.validate
       (Config.with_damping ~deployment:(Config.Fraction 0.) Params.cisco Config.default)
    = Ok ())

let test_deployment_only_out_of_range () =
  let config =
    Config.with_damping ~deployment:(Config.Only [ 9 ]) Params.cisco
      { Config.default with Config.link_jitter = 0. }
  in
  Alcotest.check_raises "out of range node"
    (Invalid_argument "Network: deployment node 9 out of range") (fun () ->
      ignore (Fixture.create ~config (Rfd_topology.Builders.line 2)))

let suite =
  [
    Alcotest.test_case "default valid" `Quick test_default_valid;
    Alcotest.test_case "with_damping" `Quick test_with_damping;
    Alcotest.test_case "bad fields rejected" `Quick test_rejects_bad_fields;
    Alcotest.test_case "bad damping rejected" `Quick test_rejects_bad_damping;
    Alcotest.test_case "bad overrides rejected" `Quick test_rejects_bad_overrides;
    Alcotest.test_case "network surfaces config errors" `Quick
      test_network_rejects_invalid_config;
    Alcotest.test_case "deployment node range" `Quick test_deployment_only_out_of_range;
    Alcotest.test_case "non-finite link delay rejected" `Quick
      test_rejects_non_finite_link_delay;
    Alcotest.test_case "non-finite link jitter rejected" `Quick
      test_rejects_non_finite_link_jitter;
    Alcotest.test_case "non-finite mrai jitter rejected" `Quick
      test_rejects_non_finite_mrai_jitter;
    Alcotest.test_case "NaN deployment fraction rejected" `Quick
      test_rejects_nan_deployment_fraction;
  ]
