type outcome =
  | Result of Runner.result
  | Crashed of string
  | Timed_out of { attempts : int; deadline : float }

let header = "rfd-journal/5"
let header_line = header ^ "\n"

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

(* [first] is the file's first line, without its newline. *)
let refuse path first =
  match List.assoc_opt first superseded with
  | Some why ->
      failwith
        (Printf.sprintf "%s is an %s journal (%s), but this build reads only %s; start a new journal"
           path first why header)
  | None -> failwith (Printf.sprintf "%s is not a %s file (header %S)" path header first)

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

type line = Entry of string * outcome | Corrupt | Torn

(* The line at [ic]'s position: its text, and whether a newline ended it
   (only a file's last line can lack one). *)
let next_line ic =
  let start = pos_in ic in
  match input_line ic with
  | text -> Some (text, pos_in ic - start > String.length text)
  | exception End_of_file -> None

(* The recovery rule's first half: the header line, or a strict prefix of
   it that is the whole file (a torn header: an empty journal), or a
   refusal. *)
let skip_header path ic =
  match next_line ic with
  | None -> ()
  | Some (first, true) when first = header -> ()
  | Some (first, false) when String.starts_with ~prefix:first header -> ()
  | Some (first, _) -> refuse path first

(* The one line scanner. Its second half of the rule: an unterminated
   last line is [Torn], whatever it holds. Blank lines are skipped. *)
let fold path f init =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  skip_header path ic;
  let rec go acc =
    let offset = pos_in ic in
    match next_line ic with
    | None -> acc
    | Some ("", true) -> go acc
    | Some (text, terminated) ->
        let verdict =
          if not terminated then Torn
          else
            match parse_line text with
            | Some (key, outcome) -> Entry (key, outcome)
            | None -> Corrupt
        in
        go (f acc ~offset ~length:(pos_in ic - offset) verdict)
  in
  go init

type writer = { fd : Unix.file_descr; mutable size : int; mutable closed : bool }

let write_fully fd s =
  let rec go written =
    if written < String.length s then
      go (written + Unix.write_substring fd s written (String.length s - written))
  in
  go 0

(* The length of [ic]'s first [n] bytes up to their last newline, 0 if
   they hold none. It reads backwards a block at a time, so it reads no
   more than the torn tail and one block. *)
let rec complete_length ic n =
  if n = 0 then 0
  else
    let k = min n 4096 in
    let block = Bytes.create k in
    seek_in ic (n - k);
    really_input ic block 0 k;
    match Bytes.rindex_opt block '\n' with
    | Some i -> n - k + i + 1
    | None -> complete_length ic (n - k)

let create path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  let repair ic =
    skip_header path ic;
    let size = in_channel_length ic in
    (* What the rule forgives goes before the first append: everything
       after the last newline, which is a torn tail or, in a file with no
       newline, a torn header. A file cut to nothing gets its header. *)
    let complete = complete_length ic size in
    if complete = 0 || complete < size then begin
      Unix.ftruncate fd complete;
      if complete = 0 then write_fully fd header_line;
      Unix.fsync fd
    end;
    max complete (String.length header_line)
  in
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> repair ic)
  with
  | size -> { fd; size; closed = false }
  | exception e ->
      Unix.close fd;
      raise e

(* One [write] of one line, then fsync: the line is durable before the
   caller moves on, and a crash between lines never leaves more than a
   single torn tail. *)
let append w ~key outcome =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  let line = render_line ~key outcome in
  write_fully w.fd line;
  Unix.fsync w.fd;
  w.size <- w.size + String.length line

let size w = w.size

(* [O_APPEND] places every write at the end whatever the offset, so the
   seek here cannot misplace an append. *)
let read w ~offset ~length =
  if w.closed then invalid_arg "Journal.read: writer is closed";
  ignore (Unix.lseek w.fd offset Unix.SEEK_SET);
  let line = Bytes.create length in
  let rec fill pos =
    pos = length
    || match Unix.read w.fd line pos (length - pos) with 0 -> false | n -> fill (pos + n)
  in
  if fill 0 then parse_line (Bytes.sub_string line 0 (length - 1)) else None

let close w =
  if not w.closed then begin
    w.closed <- true;
    Unix.close w.fd
  end

type loaded = { entries : (string, outcome) Hashtbl.t; corrupt : int }

let load path =
  let entries = Hashtbl.create 64 in
  let corrupt =
    fold path
      (fun corrupt ~offset:_ ~length:_ -> function
        | Entry (key, outcome) ->
            Hashtbl.replace entries key outcome;
            corrupt
        | Corrupt | Torn -> corrupt + 1)
      0
  in
  { entries; corrupt }

type check_report = {
  checked_valid : int;
  checked_duplicates : int;
  checked_corrupt : int;
  checked_torn : bool;
}

let check path =
  let seen = Hashtbl.create 64 in
  fold path
    (fun r ~offset:_ ~length:_ -> function
      | Entry (key, _) ->
          let duplicate = Hashtbl.mem seen key in
          Hashtbl.replace seen key ();
          {
            r with
            checked_valid = r.checked_valid + 1;
            checked_duplicates = r.checked_duplicates + Bool.to_int duplicate;
          }
      | Corrupt -> { r with checked_corrupt = r.checked_corrupt + 1 }
      | Torn -> { r with checked_torn = true })
    { checked_valid = 0; checked_duplicates = 0; checked_corrupt = 0; checked_torn = false }

type compaction = {
  kept : int;
  dropped_duplicates : int;
  dropped_corrupt : int;
  extents : (string * int * int) list;
}

(* The lines at [extents], in order, after a header: rewrite-to-temp +
   rename, so the original file stays intact (and loadable) until the
   atomic rename, and a crash mid-compaction loses nothing. The temp file
   is fsync'd before the rename and the directory after it, so the swap
   itself survives a power cut. Returns each line's extent in the new
   file. *)
let rewrite path extents =
  let tmp = path ^ ".compact.tmp" in
  let ic = open_in_bin path in
  let moved =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            write_fully fd header_line;
            let at = ref (String.length header_line) in
            let moved =
              List.map
                (fun (key, offset, length) ->
                  let line = Bytes.create length in
                  seek_in ic offset;
                  really_input ic line 0 length;
                  write_fully fd (Bytes.unsafe_to_string line);
                  let extent = (key, !at, length) in
                  at := !at + length;
                  extent)
                extents
            in
            Unix.fsync fd;
            moved))
  in
  Unix.rename tmp path;
  (* Persist the rename itself (the directory entry); best-effort — some
     filesystems refuse fsync on a directory fd. *)
  (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
      (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
      Unix.close dirfd
  | exception Unix.Unix_error _ -> ());
  moved

(* Two passes: the scan finds each key's newest line, then those lines
   are copied from their extents in first-seen key order, so the output
   is deterministic and no payload is re-serialized. A scan that drops
   nothing leaves the file as it is: all it can hold besides its lines
   are blank lines, which every reader skips, and a torn header, which
   [create] repairs. *)
let compact path =
  let newest = Hashtbl.create 64 in
  let order, dropped_duplicates, dropped_corrupt =
    fold path
      (fun (order, duplicates, corrupt) ~offset ~length -> function
        | Entry (key, _) ->
            let seen = Hashtbl.mem newest key in
            Hashtbl.replace newest key (offset, length);
            if seen then (order, duplicates + 1, corrupt) else (key :: order, duplicates, corrupt)
        | Corrupt | Torn -> (order, duplicates, corrupt + 1))
      ([], 0, 0)
  in
  let extents =
    List.rev_map
      (fun key ->
        let offset, length = Hashtbl.find newest key in
        (key, offset, length))
      order
  in
  let extents =
    if dropped_duplicates > 0 || dropped_corrupt > 0 then rewrite path extents else extents
  in
  { kept = Hashtbl.length newest; dropped_duplicates; dropped_corrupt; extents }
