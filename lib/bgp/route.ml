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

(* Routes are not interned: a RIB slot's prefix is its index, so routers
   store the interned path alone and build a route where an update enters
   or leaves them. The network's one intern table is its path table. *)
type table = As_path.table

let path_table tbl = tbl
let table_size _ = 0
