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

(* Routes are interned per network, alongside their paths: a route is
   keyed by (prefix id, interned path id), so the same advertisement
   stored in many RIB-Out / RIB-In tables is one shared record. The two ids
   are packed into one int, so a lookup allocates no key and the table
   stores none. *)
module Key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

module Routes = Hashtbl.Make (Key)

type table = {
  paths : As_path.table;
  routes : t Routes.t;
}

let create_table ?(size = 256) () =
  { paths = As_path.create_table ~size (); routes = Routes.create (max 1 size) }

let path_table tbl = tbl.paths
let table_size tbl = Routes.length tbl.routes

let half_bits = 31

let key prefix path_id =
  let prefix = Prefix.to_int prefix in
  if prefix lsr half_bits <> 0 || path_id < 0 || path_id lsr half_bits <> 0 then
    invalid_arg
      (Printf.sprintf "Route: prefix %d or path id %d out of the interning key range" prefix
         path_id);
  (prefix lsl half_bits) lor path_id

let find_or_add tbl prefix path =
  let key = key prefix (As_path.intern_id path) in
  match Routes.find_opt tbl.routes key with
  | Some r -> r
  | None ->
      let r = { prefix; path } in
      Routes.add tbl.routes key r;
      r

let make_interned tbl ~prefix ~path = find_or_add tbl prefix (As_path.intern tbl.paths path)

(* The extended path is interned here whatever the tail's provenance, so
   the route key's path id is always valid for this table. *)
let prepend_interned tbl asn t =
  find_or_add tbl t.prefix (As_path.prepend_interned tbl.paths asn t.path)
