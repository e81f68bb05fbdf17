type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

(* SplitMix64 output function (Steele, Lea, Flood 2014). Inlined, so a
   column draw keeps its state unboxed from load to store. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo bias is negligible for the small bounds used here (node counts,
     jitter grains), and determinism matters more than perfect uniformity. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int bound))

let check_bound bound =
  if not (Float.is_finite bound && bound > 0.) then
    invalid_arg "Rng.float: bound must be positive and finite"

(* 53 high bits -> uniform in [0,1), scaled to [0, bound). *)
let[@inline] to_float bits bound =
  Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0 *. bound

let float t bound =
  check_bound bound;
  to_float (bits64 t) bound

let uniform t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  if lo = hi then lo else lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pareto t ~alpha ~xmin =
  if not (Float.is_finite alpha) || alpha <= 0. then
    invalid_arg "Rng.pareto: alpha must be positive and finite";
  if not (Float.is_finite xmin) || xmin <= 0. then
    invalid_arg "Rng.pareto: xmin must be positive and finite";
  (* Inverse-CDF: x = xmin * u^(-1/alpha) with u uniform in (0,1]. *)
  let u = 1.0 -. float t 1.0 in
  xmin *. (u ** (-1. /. alpha))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

(* A column keeps stream [i]'s state in bytes [8i, 8i + 8), native-endian:
   loading, stepping and storing it never boxes the [int64]. *)
type column = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let column n ~seed =
  if n < 0 then invalid_arg "Rng.column: negative length";
  let c = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    set_state c (8 * i) (Int64.of_int (seed i))
  done;
  c

let column_length c = Bytes.length c / 8

let column_float c i bound =
  check_bound bound;
  let state = Int64.add (get_state c (8 * i)) golden_gamma in
  set_state c (8 * i) state;
  to_float (mix state) bound
