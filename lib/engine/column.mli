(** Append-only columns of unboxed cells, in fixed-size chunks.

    A column is a spine of chunks. The first chunk grows by doubling, from
    64 cells up to {!chunk_cells}; every later chunk is allocated at
    {!chunk_cells} cells and never copied, so a long column costs no
    doubling copies and holds at most one chunk of spare cells. Cell [i]
    is cell [i land (chunk_cells - 1)] of chunk [i / chunk_cells]: {!get}
    and {!set} are O(1).

    {!Floats} keeps its cells unboxed in [Float.Array] chunks: a cell
    costs 8 bytes, and {!Floats.push} and {!write_words} allocate nothing
    (a float that {!Floats.get} returns to another module is boxed, as
    every float a function returns is when calls are not inlined). {!Ints}
    keeps [int array] chunks, and {!Chunks} chunks of any layout. The
    spine always has exactly one slot per chunk. *)

val chunk_cells : int
(** Cells in every chunk but the first: 8,192, 64 KiB of 8-byte cells. *)

module Floats : sig
  type t

  val create : unit -> t
  val of_array : float array -> t
  val length : t -> int

  val get : t -> int -> float
  (** Raises [Invalid_argument] outside [\[0, length)]. *)

  val set : t -> int -> float -> unit
  (** Overwrite an existing cell; raises like {!get}. *)

  val push : t -> float -> unit
  val iter : (float -> unit) -> t -> unit

  val to_array : t -> float array
  (** A fresh copy of the cells. *)

  val trim : t -> unit
  (** Drop the spare cells, once the column is complete and about to be
      kept or marshalled: only the last chunk is cut (a copy of at most
      {!chunk_cells} cells). A later {!push} still works. *)

  val detached : t -> t
  (** A column of [t]'s length that holds no cells: [t]'s stand-in in a
      marshalled digest head, which must not depend on where [t]'s cells
      or spare capacity are. It is not for use as a column: {!get} and
      {!set} on it raise [Invalid_argument]. *)
end

module Ints : sig
  type t

  val create : unit -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit
  val iter : (int -> unit) -> t -> unit
  val trim : t -> unit
  val detached : t -> t
  (** As in {!Floats}. *)
end

(** {1 Chunks of any layout} *)

module Chunks : sig
  type 'c t
  (** A spine of chunks of the caller's type, grown as every column's is:
      for several columns that share it, a chunk can be a record of
      arrays. Cell [i] is at offset [i land (chunk_cells - 1)] of
      [chunk t i], so one bounds-checked call finds a row of all of them,
      and the accesses to its fields are inline. *)

  val create : first:int -> make:(int -> 'c) -> 'c t
  (** [make n] is a chunk of [n] cells. The first chunk is made at once
      with [first] cells (at most {!chunk_cells}) and doubles from
      there. *)

  val add :
    make:(int -> 'c) -> blit:('c -> int -> 'c -> int -> int -> unit) -> 'c t -> int
  (** One more cell: its index. A chunk is made for it, or the first one
      widened ([blit src src_pos dst dst_pos n] copies [n] cells), exactly
      where a push into a column would. The cell holds whatever [make] put
      there. *)

  val chunk : 'c t -> int -> 'c
  (** The chunk holding cell [i]. Raises [Invalid_argument] outside
      [\[0, length)]. *)
end

(** {1 Cells as words} *)

type cells = Floats of Floats.t | Ints of Ints.t

val length : cells -> int

val write_words : cells -> first:int -> Bytes.t -> pos:int -> int
(** [write_words c ~first buf ~pos] writes cells [first], [first + 1], ...
    of [c] as little-endian 64-bit words (a float's IEEE bits, an int
    sign-extended) from byte [pos] of [buf], as many as fit before its
    end, and returns how many it wrote. Allocates nothing. *)
