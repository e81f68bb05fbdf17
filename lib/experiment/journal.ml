type outcome =
  | Result of Runner.result
  | Crashed of string
  | Timed_out of { attempts : int; deadline : float }

let header = "rfd-journal/5"

(* Older journals are refused, never migrated: version 1 results came
   from shared transport random streams under unchanged job keys, and
   version 2 to 4 payloads hold a result of another layout, which
   unmarshalling at this build's type would misread. *)
let superseded =
  [
    ("rfd-journal/1", "older transport RNG scheme");
    ("rfd-journal/2", "older result layout");
    ("rfd-journal/3", "older result layout");
    ("rfd-journal/4", "older result layout");
  ]

let refuse_header ~caller path text =
  let first_line =
    match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text
  in
  match List.assoc_opt first_line superseded with
  | Some why ->
      failwith
        (Printf.sprintf
           "%s: %s is an %s journal (%s), but this build reads only %s; start a new journal"
           caller path first_line why header)
  | None ->
      failwith (Printf.sprintf "%s: %s is not a %s file (header %S)" caller path header first_line)

(* Scenarios, results and the outcome variants above are closure-free data
   (records, arrays, variants), so Marshal round-trips them exactly —
   float bits included — and serializes equal values to equal bytes, which
   is what makes both the job key and the payload digest stable across
   processes of the same build. *)
let marshal v = Marshal.to_string v []

let job_key scenario ~seed ~pulses =
  Digest.to_hex (Digest.string (marshal (scenario, seed, pulses)))

let hex_digits = "0123456789abcdef"

let to_hex s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      Bytes.unsafe_set out (2 * i) hex_digits.[Char.code c lsr 4];
      Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[Char.code c land 15])
    s;
  Bytes.unsafe_to_string out

(* Each byte's value as a hex digit, or -1: lowercase only ([to_hex]'s
   digits), or either case. *)
let lower_value, hex_value =
  let table ~upper =
    let table = Array.make 256 (-1) in
    String.iteri
      (fun v c ->
        table.(Char.code c) <- v;
        if upper then table.(Char.code (Char.uppercase_ascii c)) <- v)
      hex_digits;
    table
  in
  (table ~upper:false, table ~upper:true)

let decode_hex value s =
  let bytes = Bytes.create (String.length s / 2) in
  (* A -1 digit makes the byte negative, whichever half it is in. *)
  let rec go i =
    if i = Bytes.length bytes then Some (Bytes.unsafe_to_string bytes)
    else
      let v = (value.(Char.code s.[2 * i]) lsl 4) lor value.(Char.code s.[(2 * i) + 1]) in
      if v < 0 then None
      else begin
        Bytes.unsafe_set bytes i (Char.unsafe_chr v);
        go (i + 1)
      end
  in
  if String.length s mod 2 <> 0 then None else go 0

let of_hex = decode_hex hex_value

(* A line's digest covers its key and its payload, so neither loads
   damaged: the MD5 of the key followed by the payload's raw MD5, which a
   fixed 16 bytes keeps unambiguous without copying the payload. *)
let line_digest ~key payload = Digest.to_hex (Digest.string (key ^ Digest.string payload))

let render_line ~key outcome =
  let payload = marshal outcome in
  String.concat "" [ key; " "; line_digest ~key payload; " "; to_hex payload; "\n" ]

type writer = { fd : Unix.file_descr; mutable closed : bool }

let write_fully fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd bytes !written (n - !written)
  done

let first_line path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)

let create path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  (if (Unix.fstat fd).Unix.st_size = 0 then begin
     write_fully fd (header ^ "\n");
     Unix.fsync fd
   end
   else
     match first_line path with
     | first when first = header -> ()
     | first ->
         Unix.close fd;
         refuse_header ~caller:"Journal.create" path first);
  { fd; closed = false }

(* One [write] of one line, then fsync: the line is durable before the
   caller moves on, and a crash between lines never leaves more than a
   single torn tail for [load] to skip. *)
let append w ~key outcome =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  write_fully w.fd (render_line ~key outcome);
  Unix.fsync w.fd

let close w =
  if not w.closed then begin
    w.closed <- true;
    Unix.close w.fd
  end

type loaded = { entries : (string, outcome) Hashtbl.t; corrupt : int }

(* Only lines [render_line] could have written are read: its hex is
   lowercase, while [of_hex] would also take an upper-case payload. *)
let parse_line line =
  match String.split_on_char ' ' line with
  | [ key; digest; hex ] -> (
      match decode_hex lower_value hex with
      | Some payload when line_digest ~key payload = digest -> (
          match (Marshal.from_string payload 0 : outcome) with
          | outcome -> Some (key, outcome)
          | exception _ -> None)
      | Some _ | None -> None)
  | _ -> None

(* Raw variant of [load] for compaction: keeps the original line bytes per
   key (newest wins) and the order keys first appeared, so the compacted
   file is deterministic and never re-serializes payloads. *)
let scan_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match input_line ic with
      | first when first = header -> ()
      | first -> refuse_header ~caller:"Journal.compact" path first
      | exception End_of_file ->
          failwith (Printf.sprintf "Journal.compact: %s is empty" path));
      let latest = Hashtbl.create 64 in
      let order = ref [] in
      let duplicates = ref 0 in
      let corrupt = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 then
             match parse_line line with
             | Some (key, _) ->
                 if Hashtbl.mem latest key then incr duplicates
                 else order := key :: !order;
                 Hashtbl.replace latest key line
             | None -> incr corrupt
         done
       with End_of_file -> ());
      (List.rev !order, latest, !duplicates, !corrupt))

type compaction = { kept : int; dropped_duplicates : int; dropped_corrupt : int }

(* Rewrite-to-temp + rename: the original file stays intact (and loadable)
   until the atomic rename, so a crash mid-compaction loses nothing. The
   temp file is fsync'd before the rename and the directory after it, so
   the swap itself survives a power cut. *)
let compact path =
  let order, latest, dropped_duplicates, dropped_corrupt = scan_raw path in
  let tmp = path ^ ".compact.tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_fully fd (header ^ "\n");
      List.iter (fun key -> write_fully fd (Hashtbl.find latest key ^ "\n")) order;
      Unix.fsync fd);
  Unix.rename tmp path;
  (* Persist the rename itself (the directory entry); best-effort — some
     filesystems refuse fsync on a directory fd. *)
  (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
      (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
      Unix.close dirfd
  | exception Unix.Unix_error _ -> ());
  { kept = List.length order; dropped_duplicates; dropped_corrupt }

type check_report = {
  checked_valid : int;
  checked_duplicates : int;
  checked_corrupt : int;
  checked_torn : bool;
}

(* Read-only verification: digest-check every line without building any
   outcome values or touching the file. A final line with no trailing
   newline that also fails to parse is a torn SIGKILL tail — expected,
   benign, reported separately; an unparsable line anywhere else means
   real corruption. *)
let check path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      let contents = really_input_string ic size in
      let first_line =
        match String.index_opt contents '\n' with
        | Some i -> String.sub contents 0 i
        | None -> contents
      in
      if first_line <> header then refuse_header ~caller:"Journal.check" path contents;
      let terminated = size > 0 && contents.[size - 1] = '\n' in
      let lines = String.split_on_char '\n' contents in
      let body =
        match lines with
        | _header :: rest -> rest
        | [] -> []
      in
      (* split_on_char leaves a trailing "" for a terminated file and the
         torn fragment (if any) otherwise. *)
      let n_body = List.length body in
      let seen = Hashtbl.create 64 in
      let valid = ref 0 in
      let duplicates = ref 0 in
      let corrupt = ref 0 in
      let torn = ref false in
      List.iteri
        (fun i line ->
          let last = i = n_body - 1 in
          if String.length line = 0 then ()
          else
            match parse_line line with
            | Some (key, _) ->
                if Hashtbl.mem seen key then incr duplicates
                else Hashtbl.replace seen key ();
                incr valid
            | None -> if last && not terminated then torn := true else incr corrupt)
        body;
      {
        checked_valid = !valid;
        checked_duplicates = !duplicates;
        checked_corrupt = !corrupt;
        checked_torn = !torn;
      })

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match input_line ic with
      | first when first = header -> ()
      | first -> refuse_header ~caller:"Journal.load" path first
      | exception End_of_file ->
          failwith (Printf.sprintf "Journal.load: %s is empty" path));
      let entries = Hashtbl.create 64 in
      let corrupt = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 then
             match parse_line line with
             | Some (key, outcome) -> Hashtbl.replace entries key outcome
             | None -> incr corrupt
         done
       with End_of_file -> ());
      { entries; corrupt = !corrupt })
