module Journal = Rfd_experiment.Journal

(* Doubly-linked LRU over decoded outcomes. The list is intrusive and
   keyed by the same strings as the index; size never exceeds [cap]. *)
module Lru = struct
  type node = {
    key : string;
    value : Journal.outcome;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    cap : int;
    table : (string, node) Hashtbl.t;
    mutable head : node option;  (* most recent *)
    mutable tail : node option;  (* eviction end *)
  }

  let create cap = { cap; table = Hashtbl.create (max 16 cap); head = None; tail = None }

  let unlink t node =
    (match node.prev with
    | Some p -> p.next <- node.next
    | None -> t.head <- node.next);
    (match node.next with
    | Some n -> n.prev <- node.prev
    | None -> t.tail <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.next <- t.head;
    (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
    t.head <- Some node

  let find t key =
    match Hashtbl.find_opt t.table key with
    | None -> None
    | Some node ->
        unlink t node;
        push_front t node;
        Some node.value

  let add t key value =
    if t.cap > 0 then begin
      (match Hashtbl.find_opt t.table key with
      | Some old ->
          unlink t old;
          Hashtbl.remove t.table key
      | None -> ());
      let node = { key; value; prev = None; next = None } in
      push_front t node;
      Hashtbl.replace t.table key node;
      if Hashtbl.length t.table > t.cap then
        match t.tail with
        | Some victim ->
            unlink t victim;
            Hashtbl.remove t.table victim.key
        | None -> ()
    end

  let size t = Hashtbl.length t.table
end

type t = {
  path : string;
  mutable writer : Journal.writer option;  (* None once closed *)
  read_fd : Unix.file_descr;
  index : (string, int * int) Hashtbl.t;  (* key -> (offset, line bytes) *)
  lru : Lru.t;
  mutable size : int;  (* current end-of-file offset, tracked locally *)
  mutable disk_reads : int;
  mutex : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let header_line = Journal.header ^ "\n"

exception Torn_header of int

(* Scan the whole journal once, recording each valid line's byte extent.
   Returns the index and the offset of the first byte past the last
   complete line — anything after that is a torn tail to truncate. *)
let scan path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      let refuse () = Journal.refuse_header ~caller:"Store.open_" path contents in
      if len < String.length header_line then
        (* Empty, or a header torn mid-write by a crash: truncate to zero
           and let Journal.create rewrite it. Anything else is not ours. *)
        if contents = String.sub header_line 0 len then
          raise (Torn_header len)
        else refuse ()
      else if String.sub contents 0 (String.length header_line) <> header_line then refuse ();
      let index = Hashtbl.create 256 in
      let pos = ref (String.length header_line) in
      let last_complete = ref !pos in
      while !pos < len do
        match String.index_from_opt contents !pos '\n' with
        | None -> pos := len (* torn tail: no newline — fall off the loop *)
        | Some nl ->
            let line = String.sub contents !pos (nl - !pos) in
            (match Journal.parse_line line with
            | Some (key, _) -> Hashtbl.replace index key (!pos, nl + 1 - !pos)
            | None -> ());
            pos := nl + 1;
            last_complete := !pos
      done;
      (index, !last_complete, len))

let open_ ?(cache = 1024) path =
  if cache < 0 then invalid_arg "Store.open_: cache must be >= 0";
  let index, last_complete, file_len =
    if Sys.file_exists path then
      try scan path with Torn_header len -> (Hashtbl.create 256, 0, len)
    else (Hashtbl.create 256, 0, 0)
  in
  (* Truncate a torn tail (kill -9 mid-append) before reopening for
     append, so the next line starts on a clean boundary instead of
     gluing itself to the partial one. *)
  if last_complete < file_len then begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd last_complete;
        Unix.fsync fd)
  end;
  let writer = Journal.create path in
  let read_fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let size = (Unix.fstat read_fd).Unix.st_size in
  {
    path;
    writer = Some writer;
    read_fd;
    index;
    lru = Lru.create cache;
    size;
    disk_reads = 0;
    mutex = Mutex.create ();
  }

let read_extent t (offset, len) =
  ignore (Unix.lseek t.read_fd offset Unix.SEEK_SET);
  let buf = Bytes.create len in
  let rec fill pos =
    if pos < len then
      match Unix.read t.read_fd buf pos (len - pos) with
      | 0 -> pos
      | n -> fill (pos + n)
    else pos
  in
  let got = fill 0 in
  if got < len then None
  else
    (* Strip the trailing newline; parse_line re-verifies the digest, so
       even external corruption of the file shows up as a miss here
       rather than a bogus response. *)
    let line = Bytes.sub_string buf 0 (len - 1) in
    Journal.parse_line line

let find t key =
  with_lock t (fun () ->
      match Lru.find t.lru key with
      | Some outcome -> Some outcome
      | None -> (
          match Hashtbl.find_opt t.index key with
          | None -> None
          | Some extent -> (
              t.disk_reads <- t.disk_reads + 1;
              match read_extent t extent with
              | Some (k, outcome) when k = key ->
                  Lru.add t.lru key outcome;
                  Some outcome
              | Some _ | None -> None)))

let mem t key = with_lock t (fun () -> Hashtbl.mem t.index key)

let put t ~key outcome =
  with_lock t (fun () ->
      match t.writer with
      | None -> invalid_arg "Store.put: store is closed"
      | Some writer ->
          let line = Journal.render_line ~key outcome in
          let offset = t.size in
          Journal.append writer ~key outcome;
          t.size <- offset + String.length line;
          Hashtbl.replace t.index key (offset, String.length line);
          Lru.add t.lru key outcome)

let entries t = with_lock t (fun () -> Hashtbl.length t.index)
let resident t = with_lock t (fun () -> Lru.size t.lru)
let disk_reads t = with_lock t (fun () -> t.disk_reads)

let close t =
  with_lock t (fun () ->
      match t.writer with
      | None -> ()
      | Some writer ->
          t.writer <- None;
          Journal.close writer;
          Unix.close t.read_fd)
