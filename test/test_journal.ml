(* Tests for the crash-safe sweep journal: round-trip fidelity, torn-tail
   tolerance, digest verification, key stability, reopen-append. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Journal = Rfd_experiment.Journal
open Rfd_bgp

let fast_config ?(seed = 42) () =
  let base =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed }
  in
  Config.with_damping Rfd_damping.Params.cisco base

let scenario () =
  Scenario.make ~name:"journal" ~config:(fast_config ())
    (Scenario.Mesh { rows = 3; cols = 3 })

let tmp_path () = Filename.temp_file "rfd-journal" ".log"

let with_tmp f =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_round_trip () =
  with_tmp (fun path ->
      let r = Runner.run (Scenario.with_pulses (scenario ()) 1) in
      let w = Journal.create path in
      Journal.append w ~key:"k-result" (Journal.Result r);
      Journal.append w ~key:"k-crash" (Journal.Crashed "boom");
      Journal.append w ~key:"k-timeout"
        (Journal.Timed_out { attempts = 2; deadline = 1.5 });
      Journal.close w;
      let loaded = Journal.load path in
      Alcotest.(check int) "no corrupt lines" 0 loaded.Journal.corrupt;
      Alcotest.(check int) "three entries" 3 (Hashtbl.length loaded.Journal.entries);
      (match Hashtbl.find_opt loaded.Journal.entries "k-result" with
      | Some (Journal.Result r') ->
          Alcotest.(check string) "result round-trips bit-identically"
            (Runner.result_digest r) (Runner.result_digest r')
      | _ -> Alcotest.fail "k-result missing or wrong constructor");
      (match Hashtbl.find_opt loaded.Journal.entries "k-crash" with
      | Some (Journal.Crashed msg) -> Alcotest.(check string) "crash message" "boom" msg
      | _ -> Alcotest.fail "k-crash missing or wrong constructor");
      match Hashtbl.find_opt loaded.Journal.entries "k-timeout" with
      | Some (Journal.Timed_out { attempts; deadline }) ->
          Alcotest.(check int) "attempts" 2 attempts;
          Alcotest.(check (float 0.)) "deadline" 1.5 deadline
      | _ -> Alcotest.fail "k-timeout missing or wrong constructor")

let test_truncated_tail_skipped () =
  (* A SIGKILL mid-append can leave one torn final line; load must keep
     every complete entry and count the tail as corrupt. *)
  with_tmp (fun path ->
      let w = Journal.create path in
      Journal.append w ~key:"a" (Journal.Crashed "one");
      Journal.append w ~key:"b" (Journal.Crashed "two");
      Journal.close w;
      let whole = read_file path in
      write_file path (String.sub whole 0 (String.length whole - 7));
      let loaded = Journal.load path in
      Alcotest.(check int) "torn tail counted" 1 loaded.Journal.corrupt;
      Alcotest.(check int) "intact entry kept" 1 (Hashtbl.length loaded.Journal.entries);
      Alcotest.(check bool) "the surviving entry is the first" true
        (Hashtbl.mem loaded.Journal.entries "a"))

let test_corrupt_digest_skipped () =
  with_tmp (fun path ->
      let w = Journal.create path in
      Journal.append w ~key:"a" (Journal.Crashed "one");
      Journal.append w ~key:"b" (Journal.Crashed "two");
      Journal.close w;
      (* Flip one payload hex digit of the first entry. *)
      let whole = read_file path in
      let lines = String.split_on_char '\n' whole in
      let mangled =
        List.mapi
          (fun i line ->
            if i = 1 then (
              let b = Bytes.of_string line in
              let last = Bytes.length b - 1 in
              Bytes.set b last (if Bytes.get b last = '0' then '1' else '0');
              Bytes.to_string b)
            else line)
          lines
      in
      write_file path (String.concat "\n" mangled);
      let loaded = Journal.load path in
      Alcotest.(check int) "mangled line counted corrupt" 1 loaded.Journal.corrupt;
      Alcotest.(check bool) "good line survives" true
        (Hashtbl.mem loaded.Journal.entries "b");
      Alcotest.(check bool) "bad line dropped" false
        (Hashtbl.mem loaded.Journal.entries "a"))

let test_wrong_header_rejected () =
  with_tmp (fun path ->
      write_file path "not-a-journal\n";
      match Journal.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "load accepted a non-journal file")

let test_reopen_appends_without_new_header () =
  with_tmp (fun path ->
      let w = Journal.create path in
      Journal.append w ~key:"a" (Journal.Crashed "one");
      Journal.close w;
      let w = Journal.create path in
      Journal.append w ~key:"b" (Journal.Crashed "two");
      Journal.close w;
      let loaded = Journal.load path in
      Alcotest.(check int) "no corruption across reopen" 0 loaded.Journal.corrupt;
      Alcotest.(check int) "both sessions' entries" 2
        (Hashtbl.length loaded.Journal.entries);
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "exactly one header + two entries" 3 (List.length lines);
      Alcotest.(check string) "header first" Journal.header (List.hd lines))

let test_newest_entry_wins () =
  (* A job journalled twice (e.g. re-run without --resume) must resolve to
     the later entry. *)
  with_tmp (fun path ->
      let w = Journal.create path in
      Journal.append w ~key:"a" (Journal.Crashed "old");
      Journal.append w ~key:"a" (Journal.Crashed "new");
      Journal.close w;
      let loaded = Journal.load path in
      match Hashtbl.find_opt loaded.Journal.entries "a" with
      | Some (Journal.Crashed msg) -> Alcotest.(check string) "newest wins" "new" msg
      | _ -> Alcotest.fail "entry missing")

let test_job_key_stability () =
  let sc = scenario () in
  let k1 = Journal.job_key sc ~seed:1 ~pulses:2 in
  let k2 = Journal.job_key sc ~seed:1 ~pulses:2 in
  Alcotest.(check string) "same job, same key" k1 k2;
  Alcotest.(check bool) "seed changes the key" true
    (k1 <> Journal.job_key sc ~seed:2 ~pulses:2);
  Alcotest.(check bool) "pulse count changes the key" true
    (k1 <> Journal.job_key sc ~seed:1 ~pulses:3);
  Alcotest.(check int) "hex MD5 length" 32 (String.length k1)

let test_compact_drops_duplicates_and_corrupt () =
  with_tmp (fun path ->
      let w = Journal.create path in
      Journal.append w ~key:"a" (Journal.Crashed "old");
      Journal.append w ~key:"b" (Journal.Crashed "keep-b");
      Journal.append w ~key:"a" (Journal.Crashed "new");
      Journal.close w;
      (* Simulate a SIGKILL mid-append: torn, newline-less tail. *)
      let whole = read_file path in
      write_file path (whole ^ "c 0123 deadbeef");
      let c = Journal.compact path in
      Alcotest.(check int) "kept" 2 c.Journal.kept;
      Alcotest.(check int) "duplicates dropped" 1 c.Journal.dropped_duplicates;
      Alcotest.(check int) "corrupt dropped" 1 c.Journal.dropped_corrupt;
      let loaded = Journal.load path in
      Alcotest.(check int) "compacted journal is clean" 0 loaded.Journal.corrupt;
      Alcotest.(check int) "two entries" 2 (Hashtbl.length loaded.Journal.entries);
      (match Hashtbl.find_opt loaded.Journal.entries "a" with
      | Some (Journal.Crashed msg) ->
          Alcotest.(check string) "newest line survived compaction" "new" msg
      | _ -> Alcotest.fail "entry a missing");
      (* Byte preservation: surviving lines are the exact bytes append
         wrote, and first-seen key order is kept (a before b). *)
      let expected =
        (Journal.header ^ "\n")
        ^ Journal.render_line ~key:"a" (Journal.Crashed "new")
        ^ Journal.render_line ~key:"b" (Journal.Crashed "keep-b")
      in
      Alcotest.(check string) "compacted bytes" expected (read_file path))

let test_compact_idempotent () =
  with_tmp (fun path ->
      let w = Journal.create path in
      Journal.append w ~key:"a" (Journal.Crashed "one");
      Journal.append w ~key:"a" (Journal.Crashed "two");
      Journal.close w;
      ignore (Journal.compact path);
      let bytes_once = read_file path in
      let c = Journal.compact path in
      Alcotest.(check int) "kept" 1 c.Journal.kept;
      Alcotest.(check int) "nothing left to drop" 0
        (c.Journal.dropped_duplicates + c.Journal.dropped_corrupt);
      Alcotest.(check string) "second compaction is a no-op byte-wise"
        bytes_once (read_file path))

let test_compact_result_payload_survives () =
  (* The payload a daemon serves must be untouched by compaction: same
     digest, bit for bit. *)
  with_tmp (fun path ->
      let r = Runner.run (Scenario.with_pulses (scenario ()) 1) in
      let w = Journal.create path in
      Journal.append w ~key:"job" (Journal.Result r);
      Journal.append w ~key:"job" (Journal.Result r);
      Journal.close w;
      let c = Journal.compact path in
      Alcotest.(check int) "one survivor" 1 c.Journal.kept;
      match Hashtbl.find_opt (Journal.load path).Journal.entries "job" with
      | Some (Journal.Result r') ->
          Alcotest.(check string) "digest preserved" (Runner.result_digest r)
            (Runner.result_digest r')
      | _ -> Alcotest.fail "result entry missing after compaction")

let test_compact_rejects_non_journal () =
  with_tmp (fun path ->
      write_file path "not-a-journal\nx y z\n";
      match Journal.compact path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "compact accepted a non-journal file")

let test_check_clean_duplicates_corrupt_torn () =
  with_tmp (fun path ->
      let w = Journal.create path in
      Journal.append w ~key:"k1" (Journal.Crashed "one");
      Journal.append w ~key:"k2" (Journal.Crashed "two");
      Journal.append w ~key:"k1" (Journal.Crashed "one-again");
      Journal.close w;
      let before = read_file path in
      let r = Journal.check path in
      Alcotest.(check int) "valid lines" 3 r.Journal.checked_valid;
      Alcotest.(check int) "duplicates" 1 r.Journal.checked_duplicates;
      Alcotest.(check int) "no corruption" 0 r.Journal.checked_corrupt;
      Alcotest.(check bool) "no torn tail" false r.Journal.checked_torn;
      (* Read-only: the bytes on disk are untouched. *)
      Alcotest.(check string) "check wrote nothing" before (read_file path);
      (* A terminated garbage line is corruption... *)
      write_file path (before ^ "zzzz feedfacefeedfacefeedfacefeedface 00\n");
      let r = Journal.check path in
      Alcotest.(check int) "corrupt line counted" 1 r.Journal.checked_corrupt;
      Alcotest.(check bool) "still not torn" false r.Journal.checked_torn;
      Alcotest.(check int) "valid lines unaffected" 3 r.Journal.checked_valid;
      (* ...while an unterminated trailing fragment is a torn tail, the
         benign kill -9 signature, distinct from corruption. *)
      write_file path (before ^ "k3 0123456789abcdef0123456789abcdef de");
      let r = Journal.check path in
      Alcotest.(check bool) "torn tail detected" true r.Journal.checked_torn;
      Alcotest.(check int) "torn tail is not corruption" 0
        r.Journal.checked_corrupt;
      Alcotest.(check int) "valid lines unaffected" 3 r.Journal.checked_valid)

let test_check_rejects_non_journal () =
  with_tmp (fun path ->
      write_file path "not-a-journal\nwhatever\n";
      match Journal.check path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "check accepted a non-journal file")

(* An older journal whose line this build could still decode: reading it
   would not fail, it would be wrong (version 1: results of an older
   transport RNG scheme; version 2: a result of another layout, read at
   this build's type), so every reader must refuse it by its header alone
   — naming the version found and the one supported — and leave the file
   as is. *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let refuses_old version label f () =
  with_tmp (fun path ->
      let old = version ^ "\n" ^ Journal.render_line ~key:"a" (Journal.Crashed "old") in
      write_file path old;
      (match f path with
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s names both versions (%s)" label msg)
            true
            (contains msg version && contains msg Journal.header)
      | () -> Alcotest.failf "%s accepted an %s file" label version);
      Alcotest.(check string) (label ^ " left the file alone") old (read_file path))

let loaders =
  [
    ("load", fun path -> ignore (Journal.load path));
    ("check", fun path -> ignore (Journal.check path));
    ("compact", fun path -> ignore (Journal.compact path));
    ("create", fun path -> Journal.close (Journal.create path));
  ]

let refusal_cases =
  List.concat_map
    (fun version ->
      List.map
        (fun (label, f) ->
          Alcotest.test_case
            (Printf.sprintf "%s refuses %s" label version)
            `Quick (refuses_old version label f))
        loaders)
    [ "rfd-journal/1"; "rfd-journal/2" ]

(* Every byte value, pinned: journal lines must keep their exact bytes. *)
let test_hex_all_bytes () =
  let all = String.init 256 Char.chr in
  let expected =
    String.concat "" (List.init 256 (fun c -> Printf.sprintf "%02x" c))
  in
  Alcotest.(check string) "lowercase, two digits per byte" expected (Journal.to_hex all);
  Alcotest.(check (option string)) "round trip" (Some all)
    (Journal.of_hex (Journal.to_hex all));
  Alcotest.(check (option string)) "upper case accepted" (Some all)
    (Journal.of_hex (String.uppercase_ascii expected));
  Alcotest.(check (option string)) "empty" (Some "") (Journal.of_hex "");
  Alcotest.(check (option string)) "odd length" None (Journal.of_hex "abc");
  Alcotest.(check (option string)) "non-hex digit" None (Journal.of_hex "0g");
  Alcotest.(check (option string)) "non-hex high digit" None (Journal.of_hex "z0")

(* A stored result costs a bounded number of bytes per flap-phase update:
   the Figure 8 damped 10x10 mesh at 1, 3 and 5 pulses marshals to at most
   4 KiB plus 32 bytes per update. *)
let test_result_size_bound () =
  let base =
    Scenario.make ~name:"fig8-size"
      ~config:(Config.with_damping Rfd_damping.Params.cisco Config.default)
      (Scenario.Mesh { rows = 10; cols = 10 })
  in
  List.iter
    (fun pulses ->
      let r = Runner.run (Scenario.with_pulses base pulses) in
      let bytes = String.length (Marshal.to_string r []) in
      let bound = 4096 + (32 * r.Runner.message_count) in
      if bytes > bound then
        Alcotest.failf "%d pulses: %d bytes for %d updates, bound %d" pulses bytes
          r.Runner.message_count bound)
    [ 1; 3; 5 ]

let suite =
  [
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "torn tail skipped" `Quick test_truncated_tail_skipped;
    Alcotest.test_case "corrupt digest skipped" `Quick test_corrupt_digest_skipped;
    Alcotest.test_case "wrong header rejected" `Quick test_wrong_header_rejected;
    Alcotest.test_case "reopen appends, one header" `Quick
      test_reopen_appends_without_new_header;
    Alcotest.test_case "newest entry wins" `Quick test_newest_entry_wins;
    Alcotest.test_case "job key stability" `Quick test_job_key_stability;
    Alcotest.test_case "compact drops duplicates and corrupt" `Quick
      test_compact_drops_duplicates_and_corrupt;
    Alcotest.test_case "compact is idempotent" `Quick test_compact_idempotent;
    Alcotest.test_case "compact preserves result payloads" `Quick
      test_compact_result_payload_survives;
    Alcotest.test_case "compact rejects non-journal" `Quick
      test_compact_rejects_non_journal;
    Alcotest.test_case "check: clean, duplicate, corrupt, torn" `Quick
      test_check_clean_duplicates_corrupt_torn;
    Alcotest.test_case "check rejects non-journal" `Quick
      test_check_rejects_non_journal;
    Alcotest.test_case "hex pins all 256 bytes" `Quick test_hex_all_bytes;
    Alcotest.test_case "result size bounded per update" `Quick test_result_size_bound;
  ]
  @ refusal_cases
