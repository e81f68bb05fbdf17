(* Tests for chunked columns: a model against a plain array, and the
   allocation of float pushes and reads. *)

module Column = Rfd_engine.Column
module Floats = Column.Floats
module Ints = Column.Ints
module Chunks = Column.Chunks

type op = Push of int | Set of int * int | Trim

let show_op = function
  | Push k -> Printf.sprintf "push %d" k
  | Set (i, v) -> Printf.sprintf "set %d %d" i v
  | Trim -> "trim"

(* Runs of pushes long enough to cross the 8,192-cell chunk boundary
   within a few operations, short ones, overwrites and trims anywhere,
   pushes after trims included. *)
let ops =
  QCheck.Gen.(
    list_size (int_bound 14)
      (frequency
         [
           (4, map (fun k -> Push k) (int_bound 100));
           (2, map (fun k -> Push k) (int_range 1000 9000));
           (2, map2 (fun i v -> Set (i, v)) nat (int_bound 1000));
           (2, return Trim);
         ]))

(* A spine of int-array chunks: cell [i] is at offset
   [i land (chunk_cells - 1)] of the chunk holding it. *)
let offset i = i land (Column.chunk_cells - 1)
let chunk_get chunks i = (Chunks.chunk chunks i).(offset i)
let chunk_set chunks i v = (Chunks.chunk chunks i).(offset i) <- v

let chunk_push chunks v =
  chunk_set chunks (Chunks.add ~make:(fun n -> Array.make n (-1)) ~blit:Array.blit chunks) v

(* Cell [i] of every column holds the model's [i]: as a float in one, as
   an int in the others. *)
let agrees floats ints chunks model =
  let n = Array.length model in
  let gets = ref true in
  for i = 0 to n - 1 do
    if
      Floats.get floats i <> float_of_int model.(i)
      || Ints.get ints i <> model.(i)
      || chunk_get chunks i <> model.(i)
    then gets := false
  done;
  let iterated_f = ref [] and iterated_i = ref [] in
  Floats.iter (fun v -> iterated_f := v :: !iterated_f) floats;
  Ints.iter (fun v -> iterated_i := v :: !iterated_i) ints;
  !gets
  && Floats.length floats = n
  && Ints.length ints = n
  && (match Chunks.chunk chunks n with _ -> false | exception Invalid_argument _ -> true)
  && Floats.to_array floats = Array.map float_of_int model
  && List.rev !iterated_f = Array.to_list (Array.map float_of_int model)
  && List.rev !iterated_i = Array.to_list model

(* The chunk spine's first chunk may have any size (one wider than a
   chunk is cut to one). *)
let prop_model =
  QCheck.Test.make ~count:100 ~name:"columns = plain-array model"
    (QCheck.make
       ~print:(fun (first, l) ->
         Printf.sprintf "first %d: %s" first (String.concat "; " (List.map show_op l)))
       QCheck.Gen.(pair (int_range 1 9000) ops))
    (fun (first, ops) ->
      let floats = Floats.create () and ints = Ints.create () in
      let chunks = Chunks.create ~first ~make:(fun n -> Array.make n (-1)) in
      let model = ref [||] and next = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Push k ->
              let cells = Array.init k (fun j -> !next + j) in
              next := !next + k;
              Array.iter
                (fun v ->
                  Floats.push floats (float_of_int v);
                  Ints.push ints v;
                  chunk_push chunks v)
                cells;
              model := Array.append !model cells
          | Set (i, v) ->
              let n = Array.length !model in
              if n > 0 then begin
                let i = i mod n in
                Floats.set floats i (float_of_int v);
                Ints.set ints i v;
                chunk_set chunks i v;
                !model.(i) <- v
              end
          | Trim ->
              Floats.trim floats;
              Ints.trim ints);
          agrees floats ints chunks !model)
        ops)

let test_bounds () =
  let floats = Floats.of_array [| 1.; 2. |] in
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Column: index out of bounds") (fun () ->
        ignore (f ()))
  in
  raises "get past the end" (fun () -> Floats.get floats 2);
  raises "get below zero" (fun () -> Floats.get floats (-1));
  raises "set past the end" (fun () -> Floats.set floats 2 0.);
  Floats.trim floats;
  raises "get past a trimmed end" (fun () -> Floats.get floats 2);
  let ints = Ints.create () in
  Ints.push ints 1;
  raises "ints get past the end" (fun () -> Ints.get ints 1);
  let chunks = Chunks.create ~first:256 ~make:(fun n -> Array.make n 0) in
  raises "no chunk holds a cell not added" (fun () -> Chunks.chunk chunks 0)

(* A pushed float is stored unboxed, from the box the caller already holds
   (as a hook's time argument is), and the words written for a digest
   read the cells in place. A read through [get] boxes only the float it
   returns: with dune's default [-opaque] builds no cross-module call is
   inlined, so every float a function returns is boxed. *)
let test_float_allocation () =
  let floats = Floats.create () in
  for i = 0 to Column.chunk_cells do
    Floats.push floats (float_of_int i)
  done;
  (* The second chunk exists, so the pushes below allocate no chunk. *)
  let cell = Sys.opaque_identity 0.5 in
  let before = Gc.minor_words () in
  for _ = 1 to 4000 do
    Floats.push floats cell
  done;
  let pushed = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "4,000 pushes allocate no minor words" 0. pushed;
  let buf = Bytes.create 65536 and cells = Column.Floats floats in
  let before = Gc.minor_words () in
  let written = Column.write_words cells ~first:0 buf ~pos:0 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "a buffer-load of words" 8192 written;
  Alcotest.(check (float 0.)) "writing 8,192 words allocates no minor words" 0. words;
  let sum = ref 0. in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    sum := !sum +. Floats.get floats i
  done;
  let read = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1,000 reads allocate at most their boxes (%.0f words)" read)
    true
    (read <= 2000. && !sum > 0.)

let test_write_words () =
  let buf = Bytes.make 40 '\000' in
  let ints = Ints.create () in
  List.iter (Ints.push ints) [ 1; -2; 3 ];
  Alcotest.(check int) "all three fit" 3
    (Column.write_words (Column.Ints ints) ~first:0 buf ~pos:8);
  Alcotest.(check int64) "little-endian int" 1L (Bytes.get_int64_le buf 8);
  Alcotest.(check int64) "sign-extended" (-2L) (Bytes.get_int64_le buf 16);
  let floats = Floats.of_array [| 1.5; -0.; 2.5 |] in
  Alcotest.(check int) "two words fit in 16 bytes" 2
    (Column.write_words (Column.Floats floats) ~first:1 buf ~pos:24);
  Alcotest.(check int64) "IEEE bits" (Int64.bits_of_float (-0.)) (Bytes.get_int64_le buf 24);
  Alcotest.(check int64) "next cell" (Int64.bits_of_float 2.5) (Bytes.get_int64_le buf 32)

let suite =
  [
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "float push and words allocate nothing" `Quick test_float_allocation;
    Alcotest.test_case "cells as little-endian words" `Quick test_write_words;
    QCheck_alcotest.to_alcotest prop_model;
  ]
