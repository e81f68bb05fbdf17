(* Hash-consed AS paths.

   A non-empty path is a node: its head ASN, the path it was prepended to
   (its tail), and a precomputed length, structural hash and intern id.
   Paths built through a {!table} are hash-consed: a node is keyed by
   (tail, head ASN) with the tail compared physically, so structurally equal
   paths are one shared value, [==] decides equality in O(1) on the hot path
   and RIB entries across peers and routers share whole spines. Paths built
   without a table (tests, ad-hoc construction) carry id [-1] and still
   compare correctly through the structural fallback. *)

type t =
  | Empty
  | Node of {
      head : int; (* most recently prepended ASN *)
      tail : t;
      len : int;
      shash : int; (* structural hash, incremental over prepends *)
      id : int; (* per-table intern id; -1 = not interned *)
    }

(* FNV-1a-style int mixing: cheap, stable by construction (no dependence on
   the polymorphic hasher), and incremental — hash (asn :: p) only needs
   p's hash. *)
let hash_seed = 0x811c9dc5
let mix h asn = (h lxor (asn + 0x9e3779b9)) * 0x01000193 land max_int

let empty = Empty
let length = function Empty -> 0 | Node n -> n.len
let hash = function Empty -> hash_seed | Node n -> n.shash
let intern_id = function Empty -> 0 | Node n -> n.id

let node ~id asn tail =
  Node { head = asn; tail; len = length tail + 1; shash = mix (hash tail) asn; id }

let prepend asn t = node ~id:(-1) asn t
let of_list l = List.fold_left (fun acc asn -> prepend asn acc) empty (List.rev l)

let rec to_list = function Empty -> [] | Node n -> n.head :: to_list n.tail

let rec contains t asn =
  match t with Empty -> false | Node n -> n.head = asn || contains n.tail asn

let rec origin = function
  | Empty -> None
  | Node { head; tail = Empty; _ } -> Some head
  | Node n -> origin n.tail

(* A physically shared suffix is equal, which ends the walk early for two
   paths of one table. *)
let rec same_asns a b =
  a == b
  ||
  match (a, b) with
  | Node x, Node y -> x.head = y.head && same_asns x.tail y.tail
  | Empty, Node _ | Node _, Empty | Empty, Empty -> false

(* Within one table, structurally equal paths are physically equal, so the
   walk only runs for uninterned or cross-table values. *)
let equal a b = a == b || (length a = length b && hash a = hash b && same_asns a b)

(* The seed-era lexicographic list order bit-for-bit: heads first, a
   shorter path before its extensions. The physical-equality test only
   fast-paths equal suffixes. *)
let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Empty, Empty -> 0
    | Empty, Node _ -> -1
    | Node _, Empty -> 1
    | Node x, Node y ->
        let c = Int.compare x.head y.head in
        if c <> 0 then c else compare x.tail y.tail

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ") Format.pp_print_int)
    (to_list t)

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)

(* One open-addressing array, linear probing, a power-of-two capacity
   kept at most half full. [Empty] marks a free slot: the empty path is
   never stored, since it is every table's member. A node's slot is
   derived from its structural hash, which is a function of its key
   (tail, head ASN). *)
type table = {
  mutable nodes : t array;
  mutable count : int; (* nodes stored; the last one's id *)
}

let create_table ?(size = 256) () =
  let capacity = ref 16 in
  while !capacity < 2 * size do
    capacity := 2 * !capacity
  done;
  { nodes = Array.make !capacity Empty; count = 0 }

let table_size tbl = tbl.count

(* Fibonacci hashing: the product's high bits depend on every bit of the
   hash, so the FNV mix's weak low bits do not cluster the probes. *)
let home shash mask = (shash * 0x1e3779b97f4a7c15) lsr 32 land mask

(* Probe for the node keyed by (tail, asn): its slot when present, else the
   free slot that ends its probe run. *)
let find_slot nodes ~shash asn tail =
  let mask = Array.length nodes - 1 in
  let i = ref (home shash mask) in
  while
    (match nodes.(!i) with
    | Empty -> false
    | Node n -> not (n.head = asn && n.tail == tail))
  do
    i := (!i + 1) land mask
  done;
  !i

let resize tbl =
  let old = tbl.nodes in
  let nodes = Array.make (2 * Array.length old) Empty in
  Array.iter
    (function
      | Empty -> ()
      | Node n as v -> nodes.(find_slot nodes ~shash:n.shash n.head n.tail) <- v)
    old;
  tbl.nodes <- nodes

(* Whether [t] itself is stored in [tbl]: one probe run from its home
   slot, looking for the value physically. *)
let mem tbl t =
  match t with
  | Empty -> true
  | Node n when n.id < 0 -> false
  | Node n ->
      let nodes = tbl.nodes in
      let mask = Array.length nodes - 1 in
      let i = ref (home n.shash mask) in
      while nodes.(!i) != t && nodes.(!i) != Empty do
        i := (!i + 1) land mask
      done;
      nodes.(!i) == t

(* [tail] must be a member of [tbl]. A hit allocates nothing. *)
let lookup tbl asn tail =
  let shash = mix (hash tail) asn in
  let slot = find_slot tbl.nodes ~shash asn tail in
  match tbl.nodes.(slot) with
  | Node _ as v -> v
  | Empty ->
      let id = tbl.count + 1 in
      let v = node ~id asn tail in
      tbl.count <- id;
      if 2 * id > Array.length tbl.nodes then begin
        resize tbl;
        tbl.nodes.(find_slot tbl.nodes ~shash asn tail) <- v
      end
      else tbl.nodes.(slot) <- v;
      v

(* Interns every suffix, so later prepends land on shared spines. A path
   from another table (another partition's) is rebuilt here node by node. *)
let rec intern tbl t =
  if mem tbl t then t
  else match t with Empty -> t | Node n -> lookup tbl n.head (intern tbl n.tail)

let prepend_interned tbl asn t = lookup tbl asn (intern tbl t)
