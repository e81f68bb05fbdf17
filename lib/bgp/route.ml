type t = { prefix : Prefix.t; path : As_path.t }

let make ~prefix ~path = { prefix; path }
let prefix t = t.prefix
let path t = t.path
let path_length t = As_path.length t.path
let prepend asn t = { t with path = As_path.prepend asn t.path }
let equal a b = a == b || (Prefix.equal a.prefix b.prefix && As_path.equal a.path b.path)

let compare a b =
  if a == b then 0
  else begin
    let c = Prefix.compare a.prefix b.prefix in
    if c <> 0 then c else As_path.compare a.path b.path
  end

let pp ppf t = Format.fprintf ppf "%a via %a" Prefix.pp t.prefix As_path.pp t.path

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)

(* Routes are interned per network, alongside their paths, in one
   open-addressing array (linear probing, power-of-two capacity, at most
   half full) keyed by (prefix, path). The path is interned in the same
   table's path table first, so it is compared physically, and the same
   advertisement stored in many RIB-Out / RIB-In tables is one shared
   record. [free] marks an empty slot; it is never returned. *)
type table = {
  paths : As_path.table;
  mutable routes : t array;
  mutable count : int;
}

let free = { prefix = Prefix.v 0; path = As_path.empty }

let create_table ?(size = 256) () =
  let capacity = ref 16 in
  while !capacity < 2 * size do
    capacity := 2 * !capacity
  done;
  { paths = As_path.create_table ~size (); routes = Array.make !capacity free; count = 0 }

let path_table tbl = tbl.paths
let table_size tbl = tbl.count

(* The path's structural hash mixed with the prefix id, spread by
   Fibonacci hashing as the path table does. *)
let home prefix path mask =
  ((As_path.hash path lxor Prefix.hash prefix) * 0x1e3779b97f4a7c15) lsr 32 land mask

let find_slot routes prefix path =
  let mask = Array.length routes - 1 in
  let i = ref (home prefix path mask) in
  while
    let r = routes.(!i) in
    r != free && not (r.path == path && Prefix.equal r.prefix prefix)
  do
    i := (!i + 1) land mask
  done;
  !i

let resize tbl =
  let old = tbl.routes in
  let routes = Array.make (2 * Array.length old) free in
  Array.iter (fun r -> if r != free then routes.(find_slot routes r.prefix r.path) <- r) old;
  tbl.routes <- routes

(* [path] must be interned in [tbl]'s path table. A hit allocates
   nothing. *)
let find_or_add tbl prefix path =
  let slot = find_slot tbl.routes prefix path in
  let r = tbl.routes.(slot) in
  if r != free then r
  else begin
    let r = { prefix; path } in
    tbl.count <- tbl.count + 1;
    if 2 * tbl.count > Array.length tbl.routes then begin
      resize tbl;
      tbl.routes.(find_slot tbl.routes prefix path) <- r
    end
    else tbl.routes.(slot) <- r;
    r
  end

let make_interned tbl ~prefix ~path = find_or_add tbl prefix (As_path.intern tbl.paths path)

(* The extended path is interned here whatever the tail's provenance, so
   the route's path is always a member of this table. *)
let prepend_interned tbl asn t =
  find_or_add tbl t.prefix (As_path.prepend_interned tbl.paths asn t.path)
