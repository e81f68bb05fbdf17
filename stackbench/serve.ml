(* The Serve workload: a real rfd-simd child process fed by closed-loop
   clients in this process. Each connection sends its next query only
   after the previous reply arrived, as sweep scripts do, so a slower
   daemon receives less load. *)

module Json = Rfd.Json
module Protocol = Rfd.Svc_protocol
module Client = Rfd.Svc_client
module Runner = Rfd.Runner
module Sweep = Rfd.Sweep
module Journal = Rfd.Journal
module J = Json_read

let wall = Rfd.Clock.wall

(* Built by the same dune invocation as this executable. *)
let simd_path () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/rfd_simd.exe"

type daemon = { pid : int; socket : string; dir : string }

let counter = ref 0

(* Scratch space inside the working directory, for daemon sockets and
   journals and for span files. Socket paths stay relative, well under the
   108-byte limit however deep the checkout. *)
let scratch () =
  let root = ".stackbench" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  root

let fresh_dir () =
  incr counter;
  let dir = Filename.concat (scratch ()) (Printf.sprintf "d%d-%d" (Unix.getpid ()) !counter) in
  Sys.mkdir dir 0o755;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let spawn () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let simd = simd_path () in
  let quiet = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close quiet) @@ fun () ->
    Unix.create_process simd
      [|
        simd; "--socket"; socket; "--journal"; Filename.concat dir "j.journal"; "--jobs"; "1";
        "--cache"; string_of_int Registry.serve_cache;
      |]
      Unix.stdin quiet quiet
  in
  { pid; socket; dir }

let rec connect d ~deadline =
  match Client.connect ~timeout:120. d.socket with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when wall () < deadline ->
      Unix.sleepf 0.001;
      connect d ~deadline

(* Spawn to first pong, in seconds. *)
let start () =
  let t0 = wall () in
  let d = spawn () in
  let c = connect d ~deadline:(t0 +. 30.) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  if not (Client.ping c) then failwith "daemon did not answer ping";
  (d, wall () -. t0)

let rss_kb d = Rfd.Procfs.peak_rss_kb ~path:(Printf.sprintf "/proc/%d/status" d.pid) ()

(* SIGTERM drains gracefully; a daemon still alive 30 s later is killed.
   Either way it is reaped before this returns. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = wall () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when wall () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  remove_dir d.dir

let stats d =
  let c = connect d ~deadline:(wall () +. 10.) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.stats c with
  | Ok body -> J.parse body
  | Error e -> failwith ("daemon stats: " ^ e)

type reply = {
  index : int;  (** position in the query stream *)
  start : float;
  stop : float;
  response : (Protocol.response, string) result;
}

(* The closed-loop clients (this domain plus spawned ones) share the
   stream through one atomic cursor. *)
let run_stream d ~specs ~stream =
  let cursor = Atomic.make 0 in
  let client () =
    let c = connect d ~deadline:(wall () +. 10.) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let rec loop acc =
      let index = Atomic.fetch_and_add cursor 1 in
      if index >= Array.length stream then acc
      else begin
        let start = wall () in
        let response = Client.roundtrip c (Protocol.Query specs.(stream.(index))) in
        loop ({ index; start; stop = wall (); response } :: acc)
      end
    in
    loop []
  in
  let others = List.init (Registry.serve_connections - 1) (fun _ -> Domain.spawn client) in
  let mine = client () in
  List.concat (mine :: List.map Domain.join others)
  |> List.sort (fun a b -> Int.compare a.index b.index)

(* What the daemon must answer for a spec: the body of an in-process run
   through the same elaboration, materialization and keying. Memoized for
   the life of the process, so repetitions after the first do not pay for
   it. *)
let reference_bodies : (Protocol.spec, string) Hashtbl.t = Hashtbl.create 64

let reference_body spec =
  match Hashtbl.find_opt reference_bodies spec with
  | Some body -> body
  | None ->
      let resolved = Sweep.materialize (Rep.elaborate spec) in
      let key = Journal.job_key resolved ~seed:spec.Protocol.seed ~pulses:spec.Protocol.pulses in
      let body = Protocol.result_body ~key (Runner.run resolved) in
      Hashtbl.add reference_bodies spec body;
      body

(* Every reply must be a result; every reply for a key must repeat the
   bytes of that key's first reply (a hit equals its miss) and of
   [reference key]. *)
let check_replies ~stream ~reference replies =
  let first = Hashtbl.create 128 in
  List.concat_map
    (fun r ->
      let key = stream.(r.index) in
      let fail fmt = Printf.ksprintf (fun m -> [ Printf.sprintf "query %d: %s" r.index m ]) fmt in
      match r.response with
      | Ok (Protocol.Result { body; _ }) ->
          let first_body =
            match Hashtbl.find_opt first key with
            | Some b -> b
            | None ->
                Hashtbl.add first key body;
                body
          in
          (if body <> first_body then fail "body differs from the key's first reply" else [])
          @ if body <> reference key then fail "body differs from an in-process run" else []
      | Ok (Protocol.Refused { body; _ }) -> fail "refused: %s" body
      | Ok _ -> fail "unexpected response"
      | Error e -> fail "%s" e)
    replies

let is_miss r =
  match r.response with Ok (Protocol.Result { cached = false; _ }) -> true | _ -> false

let is_hit r =
  match r.response with Ok (Protocol.Result { cached = true; _ }) -> true | _ -> false

let latency_ms r = 1000. *. (r.stop -. r.start)

let stats_failures st =
  List.filter_map
    (fun field ->
      match J.to_int (J.member field st) with
      | 0 -> None
      | n -> Some (Printf.sprintf "daemon reports %d %s" n field))
    [ "sheds"; "invalid" ]

let zipf_stream ~seed ~keys =
  Zipf.stream ~seed ~keys ~s:Registry.zipf_s ~length:Registry.stream_length

let rep (w : Registry.workload) ~seed =
  let specs = Array.of_list (Registry.specs w ~seed) in
  let stream = zipf_stream ~seed ~keys:(Array.length specs) in
  (* Set-up is timed over several spawns; the last daemon serves. *)
  let d, setup_s = Rep.sample_setup ~discard:stop start in
  let replies, wall_s, st, rss_kb =
    Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
    let t0 = wall () in
    let replies = run_stream d ~specs ~stream in
    let wall_s = wall () -. t0 in
    (replies, wall_s, stats d, rss_kb d)
  in
  let misses = List.filter is_miss replies in
  {
    Rep.setup_s;
    answers = List.length replies;
    answer_ms = List.map latency_ms replies;
    wall_s;
    events = 0;
    rss_kb;
    digests = [];
    hit_ms = List.map latency_ms (List.filter is_hit replies);
    miss_ms = List.map latency_ms misses;
    attempted = Array.length stream;
    failures =
      check_replies ~stream ~reference:(fun key -> reference_body specs.(key)) replies
      @ stats_failures st;
  }
