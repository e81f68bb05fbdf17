(* Seeded Zipf query streams: key of popularity rank k (1-based) is drawn
   with probability proportional to 1/k^s. Which key holds which rank is a
   seeded permutation, so every seed makes a different key hot. *)

let stream ~seed ~keys ~s ~length =
  if keys < 1 || length < 0 then invalid_arg "Zipf.stream";
  let rng = Rfd.Rng.create seed in
  let cdf = Array.make keys 0. in
  let total = ref 0. in
  for k = 0 to keys - 1 do
    total := !total +. (1. /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !total
  done;
  let rank_to_key = Array.init keys Fun.id in
  Rfd.Rng.shuffle rng rank_to_key;
  (* First rank whose cumulative weight exceeds u. *)
  let draw () =
    let u = Rfd.Rng.float rng !total in
    let lo = ref 0 and hi = ref (keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    rank_to_key.(!lo)
  in
  Array.init length (fun _ -> draw ())
