(* Order statistics for benchmark samples.

   A percentile above the median is only reported when at least
   [min_beyond] samples lie beyond it: a p99 over 200 samples rests on two
   observations and moves with every scheduling hiccup. *)

let min_beyond = 10

let sorted xs = List.sort Float.compare xs |> Array.of_list

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Samples strictly above the nearest-rank [q] percentile. *)
let beyond ~n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let percentile xs q =
  if beyond ~n:(List.length xs) q < min_beyond then None else Some (quantile xs q)

let sum xs = List.fold_left ( +. ) 0. xs
