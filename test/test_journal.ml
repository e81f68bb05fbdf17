(* Tests for the crash-safe sweep journal: round-trip fidelity, torn-tail
   tolerance, digest verification, key stability, reopen-append. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Journal = Rfd_experiment.Journal
module Store = Rfd_service.Store
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
     every complete entry and count the tail as corrupt. Then the
     [sweep --resume] path: reopen and append, and the new line must not
     join the fragment. *)
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
        (Hashtbl.mem loaded.Journal.entries "a");
      let w = Journal.create path in
      Journal.append w ~key:"c" (Journal.Crashed "three");
      Journal.close w;
      let loaded = Journal.load path in
      Alcotest.(check bool) "the appended entry loads" true
        (Hashtbl.find_opt loaded.Journal.entries "c" = Some (Journal.Crashed "three"));
      Alcotest.(check int) "load: nothing corrupt" 0 loaded.Journal.corrupt;
      let r = Journal.check path in
      Alcotest.(check (list int)) "check: a and c valid, 0 corrupt" [ 2; 0 ]
        [ r.Journal.checked_valid; r.Journal.checked_corrupt ];
      Alcotest.(check bool) "check: no torn tail" false r.Journal.checked_torn)

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

(* Compaction copies a journal only when its scan drops a line: a clean
   journal keeps its inode and its bytes, while one with a duplicate line
   or a torn tail is still rewritten, and so renamed over by a new
   inode. *)
let test_compact_leaves_clean_journal () =
  let inode path = (Unix.stat path).Unix.st_ino in
  let counts c = [ c.Journal.kept; c.Journal.dropped_duplicates; c.Journal.dropped_corrupt ] in
  let two_entries path =
    let w = Journal.create path in
    Journal.append w ~key:"a" (Journal.Crashed "one");
    Journal.append w ~key:"b" (Journal.Crashed "two");
    Journal.close w
  in
  with_tmp (fun path ->
      two_entries path;
      let bytes = read_file path and ino = inode path in
      Alcotest.(check (list int)) "clean: counts" [ 2; 0; 0 ] (counts (Journal.compact path));
      Alcotest.(check int) "clean: same inode" ino (inode path);
      Alcotest.(check string) "clean: same bytes" bytes (read_file path));
  List.iter
    (fun (what, damage, expected) ->
      with_tmp (fun path ->
          two_entries path;
          damage path;
          let ino = inode path in
          Alcotest.(check (list int)) (what ^ ": counts") expected (counts (Journal.compact path));
          Alcotest.(check bool) (what ^ ": rewritten") true (inode path <> ino);
          Alcotest.(check int) (what ^ ": loads clean") 0 (Journal.load path).Journal.corrupt))
    [
      ( "duplicate line",
        (fun path ->
          let w = Journal.create path in
          Journal.append w ~key:"a" (Journal.Crashed "three");
          Journal.close w),
        [ 2; 1; 0 ] );
      ("torn tail", (fun path -> write_file path (read_file path ^ "c 0123 dead")), [ 2; 0; 1 ]);
    ]

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
      Alcotest.(check int) "valid lines unaffected" 3 r.Journal.checked_valid;
      (* A journal cut right after its header, before the newline, is an
         empty journal to [load], so to [check] too. *)
      write_file path Journal.header;
      let r = Journal.check path in
      Alcotest.(check int) "header alone: nothing valid" 0 r.Journal.checked_valid;
      Alcotest.(check int) "header alone: no entries loaded" 0
        (Hashtbl.length (Journal.load path).Journal.entries))

let test_check_rejects_non_journal () =
  with_tmp (fun path ->
      write_file path "not-a-journal\nwhatever\n";
      match Journal.check path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "check accepted a non-journal file")

(* The recovery rule, reader by reader. [store_keys] opens the result
   store on the file, as a restarted daemon does, and lists which of
   [keys] it holds. *)
let store_keys path keys =
  let s = Store.open_ path in
  Fun.protect ~finally:(fun () -> Store.close s) @@ fun () ->
  (Store.entries s, List.filter (Store.mem s) keys)

(* A crash while the header was written leaves a strict prefix of the
   header line, or nothing: every reader sees an empty journal, and every
   writer starts it afresh. *)
let test_torn_header_is_empty_journal () =
  let header_line = Journal.header ^ "\n" in
  List.iter
    (fun text ->
      let name what = Printf.sprintf "%S: %s" text what in
      with_tmp (fun path ->
          write_file path text;
          let loaded = Journal.load path in
          Alcotest.(check (pair int int)) (name "load") (0, 0)
            (Hashtbl.length loaded.Journal.entries, loaded.Journal.corrupt);
          let r = Journal.check path in
          Alcotest.(check bool) (name "check") true
            (r.Journal.checked_valid = 0 && r.Journal.checked_corrupt = 0
           && not r.Journal.checked_torn);
          Alcotest.(check string) (name "check wrote nothing") text (read_file path);
          let c = Journal.compact path in
          Alcotest.(check (list int)) (name "compact") [ 0; 0; 0 ]
            [ c.Journal.kept; c.Journal.dropped_duplicates; c.Journal.dropped_corrupt ];
          Alcotest.(check string) (name "compact left it alone") text (read_file path));
      with_tmp (fun path ->
          write_file path text;
          let w = Journal.create path in
          Journal.append w ~key:"a" (Journal.Crashed "one");
          Journal.close w;
          Alcotest.(check string) (name "create rewrites the header")
            (header_line ^ Journal.render_line ~key:"a" (Journal.Crashed "one"))
            (read_file path));
      with_tmp (fun path ->
          write_file path text;
          Alcotest.(check (pair int (list string))) (name "Store.open_") (0, [])
            (store_keys path [ "a" ]);
          Alcotest.(check string) (name "the store's file has its header") header_line
            (read_file path)))
    [ ""; "r"; "rfd-jour"; Journal.header ]

(* A whole line whose newline a crash cut off is a torn tail, not an
   entry, for every reader: an append after it would otherwise join it. *)
let test_unterminated_line_is_torn () =
  let intact = (Journal.header ^ "\n") ^ Journal.render_line ~key:"a" (Journal.Crashed "one") in
  let b = Journal.render_line ~key:"b" (Journal.Crashed "two") in
  let text = intact ^ String.sub b 0 (String.length b - 1) in
  with_tmp (fun path ->
      write_file path text;
      let loaded = Journal.load path in
      Alcotest.(check (list string)) "load: a only" [ "a" ]
        (List.of_seq (Hashtbl.to_seq_keys loaded.Journal.entries));
      Alcotest.(check int) "load: the torn tail counts" 1 loaded.Journal.corrupt;
      let r = Journal.check path in
      Alcotest.(check (list int)) "check: a valid, nothing corrupt" [ 1; 0 ]
        [ r.Journal.checked_valid; r.Journal.checked_corrupt ];
      Alcotest.(check bool) "check: torn tail" true r.Journal.checked_torn;
      let c = Journal.compact path in
      Alcotest.(check (pair int int)) "compact: a kept, the tail dropped" (1, 1)
        (c.Journal.kept, c.Journal.dropped_corrupt);
      Alcotest.(check string) "compacted bytes" intact (read_file path));
  with_tmp (fun path ->
      write_file path text;
      Alcotest.(check (pair int (list string))) "Store.open_: a only" (1, [ "a" ])
        (store_keys path [ "a"; "b" ]);
      Alcotest.(check string) "Store.open_ truncated the tail" intact (read_file path))

(* An older journal whose line this build could still decode: reading it
   would not fail, it would be wrong (version 1: results of an older
   transport RNG scheme; versions 2 and 3: a result of another layout, read
   at this build's type), so every reader must refuse it by its header
   alone — naming the version found and the one supported — and leave the
   file as is. *)
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
    [ "rfd-journal/1"; "rfd-journal/2"; "rfd-journal/3"; "rfd-journal/4" ]

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
  Alcotest.(check (option string)) "non-hex high digit" None (Journal.of_hex "z0");
  (* A journal line is read only as [render_line] writes it: lowercase. *)
  let line = Journal.render_line ~key:"k" (Journal.Crashed "\255") in
  let line = String.sub line 0 (String.length line - 1) in
  Alcotest.(check bool) "lowercase line read" true (Journal.parse_line line <> None);
  let hex_at = String.rindex line ' ' + 1 in
  let upper =
    String.sub line 0 hex_at
    ^ String.uppercase_ascii (String.sub line hex_at (String.length line - hex_at))
  in
  Alcotest.(check bool) "upper-case payload refused" true (Journal.parse_line upper = None)

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

(* A valid journal — a real result, a crash, a timeout, and a key written
   twice — then random byte edits, or a truncation, anywhere in it. Keys
   are MD5 hex like real job keys, so one edit cannot turn a key into
   another key of the file. *)
let fuzz_key i = Digest.to_hex (Digest.string (string_of_int i))
let fuzz_keys = List.map fuzz_key [ 1; 2; 3 ]

let fuzz_base =
  lazy
    (let key = fuzz_key in
     let result = Runner.run (Scenario.with_pulses (scenario ()) 1) in
     Journal.header ^ "\n"
     ^ String.concat ""
         [
           Journal.render_line ~key:(key 1) (Journal.Crashed "first");
           Journal.render_line ~key:(key 2) (Journal.Result result);
           Journal.render_line ~key:(key 3)
             (Journal.Timed_out { attempts = 2; deadline = 1.5 });
           Journal.render_line ~key:(key 1) (Journal.Crashed "second");
         ])

(* An edit picks a line, then a byte of it, so the short columns (header,
   keys, digests) are hit as often as the long payload. *)
let gen_damage =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ 'a'; 'A'; 'f'; 'F'; '0'; '9'; 'g' ]);
        (2, oneofl [ ' '; '\n'; '\000'; '\r' ]);
        (1, char);
      ]
  in
  let spot = pair (int_bound 1000) (int_bound 1_000_000) in
  frequency
    [
      (3, map (fun edits -> `Edits edits) (list_size (int_range 1 3) (pair spot byte)));
      (1, map (fun spot -> `Truncate spot) spot);
    ]

let damage text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  (* Offset of byte [b] of line [l], its newline included. *)
  let offset (l, b) =
    let l = l mod Array.length lines in
    let start = ref 0 in
    for i = 0 to l - 1 do
      start := !start + String.length lines.(i) + 1
    done;
    min (String.length text) (!start + (b mod (String.length lines.(l) + 1)))
  in
  function
  | `Truncate spot -> String.sub text 0 (offset spot)
  | `Edits edits ->
      let bytes = Bytes.of_string text in
      List.iter
        (fun (spot, c) ->
          let i = offset spot in
          if i < Bytes.length bytes then Bytes.set bytes i c)
        edits;
      Bytes.to_string bytes

(* On any damage, the four readers — [load], [check], [compact] and the
   result store's [Store.open_] — refuse the file exactly when its first
   line, newline included, is neither the header line nor a strict prefix
   of it; otherwise none raises. Every entry [load] returns is one whose
   [render_line] is a line of the file, under a key of the undamaged file;
   [check]'s counts, the compaction report, the compacted file and the
   store (opened on a copy, and read back from disk) agree with [load]. *)
let prop_loaders_on_damaged_journals =
  QCheck.Test.make ~count:300 ~name:"damaged journals: no raise, no forged entry"
    (QCheck.make gen_damage)
    (fun dmg ->
      let text = damage (Lazy.force fuzz_base) dmg in
      let first =
        match String.index_opt text '\n' with
        | Some i -> String.sub text 0 (i + 1)
        | None -> text
      in
      (* The header line is the only prefix of itself that ends in a newline. *)
      let readable = String.starts_with ~prefix:first (Journal.header ^ "\n") in
      let lines = String.split_on_char '\n' text in
      let rendered entries =
        Hashtbl.fold
          (fun key outcome ok ->
            let line = Journal.render_line ~key outcome in
            ok
            && List.mem key fuzz_keys
            && List.mem (String.sub line 0 (String.length line - 1)) lines)
          entries true
      in
      with_tmp @@ fun path ->
      with_tmp @@ fun copy ->
      write_file path text;
      write_file copy text;
      let refused f = match f path with _ -> false | exception Failure _ -> true in
      if not readable then
        refused Journal.load && refused Journal.check && refused Journal.compact
        &&
        match Store.open_ copy with
        | s ->
            Store.close s;
            false
        | exception Failure _ -> true
      else
        let loaded = Journal.load path in
        let r = Journal.check path in
        let c = Journal.compact path in
        let compacted = Journal.load path in
        let distinct = Hashtbl.length loaded.Journal.entries in
        let store = Store.open_ copy in
        let stored =
          Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
          Store.entries store = distinct
          && Hashtbl.fold
               (fun key outcome ok -> ok && Store.find store key = Some outcome)
               loaded.Journal.entries true
        in
        rendered loaded.Journal.entries
        && r.Journal.checked_valid - r.Journal.checked_duplicates = distinct
        && r.Journal.checked_corrupt + Bool.to_int r.Journal.checked_torn
           = loaded.Journal.corrupt
        && c.Journal.kept = distinct
        && c.Journal.dropped_duplicates = r.Journal.checked_duplicates
        && c.Journal.dropped_corrupt = loaded.Journal.corrupt
        && compacted.Journal.corrupt = 0
        && Hashtbl.length compacted.Journal.entries = distinct
        && Hashtbl.fold
             (fun key outcome ok ->
               ok && Hashtbl.find_opt compacted.Journal.entries key = Some outcome)
             loaded.Journal.entries true
        && stored)

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
    Alcotest.test_case "compact leaves a clean journal's inode" `Quick
      test_compact_leaves_clean_journal;
    Alcotest.test_case "compact preserves result payloads" `Quick
      test_compact_result_payload_survives;
    Alcotest.test_case "compact rejects non-journal" `Quick
      test_compact_rejects_non_journal;
    Alcotest.test_case "check: clean, duplicate, corrupt, torn" `Quick
      test_check_clean_duplicates_corrupt_torn;
    Alcotest.test_case "check rejects non-journal" `Quick
      test_check_rejects_non_journal;
    Alcotest.test_case "a torn header is an empty journal" `Quick
      test_torn_header_is_empty_journal;
    Alcotest.test_case "a line without its newline is torn" `Quick
      test_unterminated_line_is_torn;
    Alcotest.test_case "hex pins all 256 bytes" `Quick test_hex_all_bytes;
    Alcotest.test_case "result size bounded per update" `Quick test_result_size_bound;
  ]
  @ refusal_cases
  @ [ QCheck_alcotest.to_alcotest prop_loaders_on_damaged_journals ]
