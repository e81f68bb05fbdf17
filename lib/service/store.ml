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
  journal : Journal.writer;
  index : (string, int * int) Hashtbl.t;  (* key -> (offset, line bytes) *)
  compaction : Journal.compaction option;  (* its counts; the extents are [index] *)
  lru : Lru.t;
  mutable disk_reads : int;
  mutex : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* One scan: [Journal.compact] refuses a foreign file untouched, checks
   every line, drops corrupt and superseded ones and a torn tail, and
   hands back the kept lines' extents, which become the index. It runs
   before [Journal.create], which must not hold the file open while it is
   rewritten; all [create] can still repair is a torn header, which holds
   no line. *)
let open_ ?(cache = 1024) path =
  if cache < 0 then invalid_arg "Store.open_: cache must be >= 0";
  let compaction = if Sys.file_exists path then Some (Journal.compact path) else None in
  let journal = Journal.create path in
  let index = Hashtbl.create 256 in
  Option.iter
    (fun c ->
      List.iter
        (fun (key, offset, length) -> Hashtbl.replace index key (offset, length))
        c.Journal.extents)
    compaction;
  {
    journal;
    index;
    compaction = Option.map (fun c -> { c with Journal.extents = [] }) compaction;
    lru = Lru.create cache;
    disk_reads = 0;
    mutex = Mutex.create ();
  }

let find t key =
  with_lock t (fun () ->
      match Lru.find t.lru key with
      | Some outcome -> Some outcome
      | None -> (
          match Hashtbl.find_opt t.index key with
          | None -> None
          | Some (offset, length) -> (
              t.disk_reads <- t.disk_reads + 1;
              (* The read re-verifies the line's digest, so even external
                 corruption of the file shows up as a miss here rather
                 than a bogus response. *)
              match Journal.read t.journal ~offset ~length with
              | Some (k, outcome) when k = key ->
                  Lru.add t.lru key outcome;
                  Some outcome
              | Some _ | None -> None)))

let mem t key = with_lock t (fun () -> Hashtbl.mem t.index key)

let put t ~key outcome =
  with_lock t (fun () ->
      let offset = Journal.size t.journal in
      Journal.append t.journal ~key outcome;
      Hashtbl.replace t.index key (offset, Journal.size t.journal - offset);
      Lru.add t.lru key outcome)

let compaction t = t.compaction
let entries t = with_lock t (fun () -> Hashtbl.length t.index)
let resident t = with_lock t (fun () -> Lru.size t.lru)
let disk_reads t = with_lock t (fun () -> t.disk_reads)
let close t = with_lock t (fun () -> Journal.close t.journal)
