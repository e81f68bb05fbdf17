let chunk_bits = 13
let chunk_cells = 1 lsl chunk_bits
let mask = chunk_cells - 1

(* Cells [0, capacity) are allocated: chunk k holds cells
   [k * chunk_cells, ...), and every chunk but the last holds
   [chunk_cells]. A chunk is allocated only to take a push, so the last
   chunk holds at least one of the [length] cells, unless it is a first
   chunk [Chunks.create] made in advance. A detached column has
   [length] but no chunks, and every access to it fails the spine's bounds
   check. *)
type 'c t = { mutable chunks : 'c array; mutable length : int; mutable capacity : int }

let empty () = { chunks = [||]; length = 0; capacity = 0 }
let detached t = { chunks = [||]; length = t.length; capacity = 0 }

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Column: index out of bounds"

(* Room for cell [capacity]: the first chunk doubles (from 64 cells, or
   from the size [Chunks.create] gave it) up to [chunk_cells]; a later chunk that
   [trim] cut short is widened back to [chunk_cells]; past a full chunk a
   new one is appended. *)
let grow ~make ~blit t =
  let n = t.capacity in
  let k = n lsr chunk_bits and used = n land mask in
  let size = if k > 0 then chunk_cells else min chunk_cells (max 64 (2 * used)) in
  let chunk = make size in
  if k < Array.length t.chunks then begin
    blit t.chunks.(k) 0 chunk 0 used;
    t.chunks.(k) <- chunk
  end
  else t.chunks <- Array.append t.chunks [| chunk |];
  t.capacity <- (k lsl chunk_bits) + size

let trim ~sub t =
  if t.capacity > t.length then begin
    (if t.length = 0 then t.chunks <- [||]
     else
       let k = (t.length - 1) lsr chunk_bits in
       t.chunks.(k) <- sub t.chunks.(k) 0 (t.length - (k lsl chunk_bits)));
    t.capacity <- t.length
  end

(* [f chunk first count] for each chunk, holding cells
   [first, first + count). *)
let iter_chunks f t =
  Array.iteri
    (fun k chunk ->
      let first = k lsl chunk_bits in
      f chunk first (min chunk_cells (t.length - first)))
    t.chunks

module Floats = struct
  type nonrec t = Float.Array.t t

  let create = empty
  let length t = t.length

  let get t i =
    check t i;
    Float.Array.get t.chunks.(i lsr chunk_bits) (i land mask)

  let set t i v =
    check t i;
    Float.Array.set t.chunks.(i lsr chunk_bits) (i land mask) v

  let push t v =
    if t.length = t.capacity then
      grow ~make:(fun n -> Float.Array.make n 0.) ~blit:Float.Array.blit t;
    let i = t.length in
    Float.Array.set t.chunks.(i lsr chunk_bits) (i land mask) v;
    t.length <- i + 1

  let iter f t =
    iter_chunks
      (fun chunk _ count ->
        for j = 0 to count - 1 do
          f (Float.Array.get chunk j)
        done)
      t

  let to_array t =
    let a = Array.make t.length 0. in
    iter_chunks
      (fun chunk first count ->
        for j = 0 to count - 1 do
          a.(first + j) <- Float.Array.get chunk j
        done)
      t;
    a

  let of_array a =
    let t = create () in
    Array.iter (push t) a;
    t

  let trim = trim ~sub:Float.Array.sub
  let detached = detached
end

module Ints = struct
  type nonrec t = int array t

  let create = empty
  let length t = t.length

  let get t i =
    check t i;
    t.chunks.(i lsr chunk_bits).(i land mask)

  let set t i v =
    check t i;
    t.chunks.(i lsr chunk_bits).(i land mask) <- v

  let push t v =
    if t.length = t.capacity then grow ~make:(fun n -> Array.make n 0) ~blit:Array.blit t;
    let i = t.length in
    t.chunks.(i lsr chunk_bits).(i land mask) <- v;
    t.length <- i + 1

  let iter f t =
    iter_chunks
      (fun chunk _ count ->
        for j = 0 to count - 1 do
          f chunk.(j)
        done)
      t

  let trim = trim ~sub:Array.sub
  let detached = detached
end

module Chunks = struct
  type nonrec 'c t = 'c t

  let create ~first ~make =
    let size = min chunk_cells (max 1 first) in
    { chunks = [| make size |]; length = 0; capacity = size }

  let add ~make ~blit t =
    if t.length = t.capacity then grow ~make ~blit t;
    let i = t.length in
    t.length <- i + 1;
    i

  let chunk t i =
    check t i;
    t.chunks.(i lsr chunk_bits)
end

type cells = Floats of Floats.t | Ints of Ints.t

let length = function Floats t -> t.length | Ints t -> t.length

(* Runs of cells within one chunk, so the inner loops index the chunk
   directly; [run] cells from cell [j] of the chunk holding cell [i]. *)
let write_words cells ~first buf ~pos =
  let n = min ((Bytes.length buf - pos) / 8) (length cells - first) in
  let i = ref first and p = ref pos in
  while !i < first + n do
    let j = !i land mask in
    let run = min (first + n - !i) (chunk_cells - j) in
    (match cells with
    | Floats t ->
        let chunk = t.chunks.(!i lsr chunk_bits) in
        for j = j to j + run - 1 do
          Bytes.set_int64_le buf !p (Int64.bits_of_float (Float.Array.get chunk j));
          p := !p + 8
        done
    | Ints t ->
        let chunk = t.chunks.(!i lsr chunk_bits) in
        for j = j to j + run - 1 do
          Bytes.set_int64_le buf !p (Int64.of_int chunk.(j));
          p := !p + 8
        done);
    i := !i + run
  done;
  n
