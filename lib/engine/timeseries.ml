type t = {
  mutable times : float array;
  mutable values : float array;
  mutable size : int;
}

let create () = { times = [||]; values = [||]; size = 0 }

let grow t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let times = Array.make new_cap 0. in
  let values = Array.make new_cap 0. in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.values 0 values 0 cap;
  t.times <- times;
  t.values <- values

let add t ~time value =
  if t.size > 0 && time < t.times.(t.size - 1) then
    invalid_arg "Timeseries.add: samples must be time-ordered";
  if t.size >= Array.length t.times then grow t;
  t.times.(t.size) <- time;
  t.values.(t.size) <- value;
  t.size <- t.size + 1

let set_level t ~time value =
  if t.size > 0 && time = t.times.(t.size - 1) then t.values.(t.size - 1) <- value
  else add t ~time value

let length t = t.size
let is_empty t = t.size = 0
let points t = Array.init t.size (fun i -> (t.times.(i), t.values.(i)))
let times t = Array.sub t.times 0 t.size

let trim t =
  if Array.length t.times > t.size then begin
    t.times <- Array.sub t.times 0 t.size;
    t.values <- Array.sub t.values 0 t.size
  end

let last t = if t.size = 0 then None else Some (t.times.(t.size - 1), t.values.(t.size - 1))
let first t = if t.size = 0 then None else Some (t.times.(0), t.values.(0))

(* Largest index whose time is <= [time], by binary search. *)
let index_at t time =
  if t.size = 0 || time < t.times.(0) then None
  else begin
    let lo = ref 0 and hi = ref (t.size - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.times.(mid) <= time then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let value_at t time =
  match index_at t time with None -> None | Some i -> Some t.values.(i)

let fold_values t init f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.values.(i)
  done;
  !acc

let max_value t =
  if t.size = 0 then None else Some (fold_values t neg_infinity Float.max)

let min_value t =
  if t.size = 0 then None else Some (fold_values t infinity Float.min)

let check_bins ~width ~t0 ~t1 =
  if width <= 0. then invalid_arg "Timeseries: bin width must be positive";
  if t1 < t0 then invalid_arg "Timeseries: t1 < t0";
  int_of_float (ceil ((t1 -. t0) /. width))

let bin_sum t ~width ~t0 ~t1 =
  let n = check_bins ~width ~t0 ~t1 in
  let sums = Array.make n 0. in
  for i = 0 to t.size - 1 do
    let time = t.times.(i) in
    if time >= t0 && time < t1 then begin
      let b = int_of_float ((time -. t0) /. width) in
      if b >= 0 && b < n then sums.(b) <- sums.(b) +. t.values.(i)
    end
  done;
  Array.init n (fun i -> (t0 +. (float_of_int i *. width), sums.(i)))

let bin_last t ~width ~t0 ~t1 =
  let n = check_bins ~width ~t0 ~t1 in
  Array.init n (fun i ->
      let bin_start = t0 +. (float_of_int i *. width) in
      let bin_end = bin_start +. width in
      let v = match value_at t bin_end with Some v -> v | None -> 0. in
      (bin_start, v))

let iter t f =
  for i = 0 to t.size - 1 do
    f ~time:t.times.(i) ~value:t.values.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~time ~value -> acc := f !acc ~time ~value);
  !acc

let to_csv t =
  let buf = Buffer.create (t.size * 16) in
  Buffer.add_string buf "time,value\n";
  iter t (fun ~time ~value -> Buffer.add_string buf (Printf.sprintf "%g,%g\n" time value));
  Buffer.contents buf
