module Col = Column.Floats

type t = { times : Col.t; values : Col.t }

let create () = { times = Col.create (); values = Col.create () }
let length t = Col.length t.times
let time t i = Col.get t.times i
let value t i = Col.get t.values i

let add t ~time value =
  let n = length t in
  if n > 0 && time < Col.get t.times (n - 1) then
    invalid_arg "Timeseries.add: samples must be time-ordered";
  Col.push t.times time;
  Col.push t.values value

let set_level t ~time value =
  let n = length t in
  if n > 0 && time = Col.get t.times (n - 1) then Col.set t.values (n - 1) value
  else add t ~time value

let is_empty t = length t = 0
let points t = Array.init (length t) (fun i -> (time t i, value t i))

let trim t =
  Col.trim t.times;
  Col.trim t.values

let detach t =
  ( { times = Col.detached t.times; values = Col.detached t.values },
    [ Column.Floats t.times; Column.Floats t.values ] )

let last t =
  let n = length t in
  if n = 0 then None else Some (time t (n - 1), value t (n - 1))

let first t = if is_empty t then None else Some (time t 0, value t 0)

(* Largest index whose time is <= [at], by binary search. *)
let index_at t at =
  if is_empty t || at < time t 0 then None
  else begin
    let lo = ref 0 and hi = ref (length t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if time t mid <= at then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let value_at t at = match index_at t at with None -> None | Some i -> Some (value t i)

let fold_values t init f =
  let acc = ref init in
  Col.iter (fun v -> acc := f !acc v) t.values;
  !acc

let max_value t = if is_empty t then None else Some (fold_values t neg_infinity Float.max)
let min_value t = if is_empty t then None else Some (fold_values t infinity Float.min)

(* The bin count: the span over the width, rounded up, except that a
   quotient within rounding (1e-9 relative) of a whole number k counts k
   bins. A width computed as [span /. k] can give a quotient of
   [k + 1e-14], and rounding up would add a bin one ulp wide. *)
let check_bins ~width ~t0 ~t1 =
  if width <= 0. then invalid_arg "Timeseries: bin width must be positive";
  if t1 < t0 then invalid_arg "Timeseries: t1 < t0";
  let q = (t1 -. t0) /. width in
  let k = Float.round q in
  int_of_float (if Float.abs (q -. k) <= 1e-9 *. k then k else ceil q)

(* Sum [value i] over the [size] samples timed [time i] into each bin. A
   sample in the few ulps that k bins can fall short of [t1] goes in the
   last one. *)
let bin_values ~size ~time ~value ~width ~t0 ~t1 =
  let n = check_bins ~width ~t0 ~t1 in
  let sums = Array.make n 0. in
  for i = 0 to size - 1 do
    let at = time i in
    if at >= t0 && at < t1 then begin
      let b = min (n - 1) (int_of_float ((at -. t0) /. width)) in
      sums.(b) <- sums.(b) +. value i
    end
  done;
  Array.init n (fun i -> (t0 +. (float_of_int i *. width), sums.(i)))

let bin_sum t = bin_values ~size:(length t) ~time:(time t) ~value:(value t)

let bin_times times =
  bin_values ~size:(Array.length times) ~time:(Array.get times) ~value:(fun _ -> 1.)

let bin_last t ~width ~t0 ~t1 =
  let n = check_bins ~width ~t0 ~t1 in
  Array.init n (fun i ->
      let bin_start = t0 +. (float_of_int i *. width) in
      let bin_end = bin_start +. width in
      let v = match value_at t bin_end with Some v -> v | None -> 0. in
      (bin_start, v))

let iter t f =
  for i = 0 to length t - 1 do
    f ~time:(time t i) ~value:(value t i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~time ~value -> acc := f !acc ~time ~value);
  !acc

let to_csv t =
  let buf = Buffer.create (length t * 16) in
  Buffer.add_string buf "time,value\n";
  iter t (fun ~time ~value -> Buffer.add_string buf (Printf.sprintf "%g,%g\n" time value));
  Buffer.contents buf
