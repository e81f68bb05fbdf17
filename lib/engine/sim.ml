(* The pending-event queue is a binary heap stored as two columns, so that
   no pending event owns a heap block: [times] (an unboxed float array) and
   [tags]. A tag packs a channel number in its low [channel_bits] bits and
   the channel's int argument above them; popping an event calls the
   channel's handler with that argument. Events pop in (time, tag) order:
   the tag is the tie-break at one instant, so an event's place depends
   only on what it is, not on when it was posted.

   A post is dead once [retract]ed: [retracted] counts, per tag, how many of
   that tag's earliest pending entries are dead. The root is the earliest
   entry of all, so it is dead exactly when its tag has a count; compaction
   sorts the entries of retracted tags to find which ones. *)

type t = {
  mutable clock : float;
  mutable live : int;
  mutable executed : int array; (* by channel: events run *)
  mutable times : Float.Array.t;
  mutable tags : int array;
  mutable size : int;
  mutable dead : int; (* retracted posts still occupying heap slots *)
  mutable max_size : int; (* high-water mark of [size] *)
  mutable compactions : int;
  mutable handlers : (t -> int -> unit) array; (* by channel *)
  retracted : (int, int) Hashtbl.t; (* by tag: dead posts still in the heap *)
}

type channel = int

let channel_bits = 8
let channel_mask = (1 lsl channel_bits) - 1
let max_arg = max_int lsr channel_bits

let create () =
  {
    clock = 0.;
    live = 0;
    executed = [||];
    times = Float.Array.create 0;
    tags = [||];
    size = 0;
    dead = 0;
    max_size = 0;
    compactions = 0;
    handlers = [||];
    retracted = Hashtbl.create 16;
  }

let now t = t.clock

(* The heap helpers take an event's time as an unboxed float; they are
   inlined so that passing it does not box it. *)
let[@inline] earlier (time : float) (tag : int) time' tag' =
  time < time' || (time = time' && tag < tag')

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.tags dst (Array.unsafe_get t.tags src)

let[@inline] place t i time tag =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.tags i tag

(* Put the event (time, tag) into the hole at [i], moving earlier parents
   down. *)
let[@inline] sift_up t i time tag =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier time tag (Float.Array.unsafe_get t.times parent) (Array.unsafe_get t.tags parent)
    then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  place t !i time tag

(* Put the event (time, tag) into the hole at [i], moving earlier children
   up. *)
let[@inline] sift_down t i time tag =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= t.size then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < t.size
           && earlier (Float.Array.unsafe_get t.times right) (Array.unsafe_get t.tags right)
                (Float.Array.unsafe_get t.times left) (Array.unsafe_get t.tags left)
        then right
        else left
      in
      if earlier (Float.Array.unsafe_get t.times child) (Array.unsafe_get t.tags child) time tag
      then begin
        move t ~src:child ~dst:!i;
        i := child
      end
      else continue := false
    end
  done;
  place t !i time tag

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_heap t =
  let cap = Array.length t.tags in
  let new_cap = if cap = 0 then 256 else cap * 2 in
  let times = Float.Array.create new_cap in
  Float.Array.blit t.times 0 times 0 cap;
  t.times <- times;
  t.tags <- extend t.tags new_cap 0

let[@inline] push t time tag =
  if t.size >= Array.length t.tags then grow_heap t;
  t.size <- t.size + 1;
  if t.size > t.max_size then t.max_size <- t.size;
  t.live <- t.live + 1;
  sift_up t (t.size - 1) time tag

let pop_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t 0 (Float.Array.unsafe_get t.times last) (Array.unsafe_get t.tags last)

(* A heap entry is dead when it is a retracted post. This answer holds
   only at the root, the earliest entry: [compact] works out the others
   itself. *)
let[@inline] is_dead t tag = t.dead > 0 && Hashtbl.mem t.retracted tag

(* One dead entry of [tag] leaves the heap. *)
let release t tag =
  let n = Hashtbl.find t.retracted tag in
  if n = 1 then Hashtbl.remove t.retracted tag else Hashtbl.replace t.retracted tag (n - 1);
  t.dead <- t.dead - 1

(* Retracted posts stay in the heap and are skipped on pop; [live] counts
   only pending ones so quiescence checks are exact. *)
let drop_dead t =
  while t.size > 0 && is_dead t t.tags.(0) do
    release t t.tags.(0);
    pop_root t
  done

(* Lazy deletion alone lets retracted posts pile up below the root
   (a workload that arms and retracts timers faster than it drains them
   grows the heap without bound). When more than half the occupied slots
   are dead, rebuild in place: keep the pending events, drop the rest, and
   re-establish the heap property bottom-up (Floyd). Pop order is
   untouched — it is fully determined by the (time, tag) key, not by the
   heap's internal layout: entries equal in both are the same event. *)
let compact_threshold = 64

(* Heap indices of the retracted posts: of each retracted tag's entries,
   the earliest [count] in time. Entries of one tag at one time are
   interchangeable, so which of them is taken does not matter. *)
let retracted_entries t =
  let candidates = ref [] in
  for i = t.size - 1 downto 0 do
    if Hashtbl.mem t.retracted t.tags.(i) then candidates := i :: !candidates
  done;
  let by_time i j = Float.compare (Float.Array.get t.times i) (Float.Array.get t.times j) in
  let owed = Hashtbl.copy t.retracted in
  List.filter
    (fun i ->
      let tag = t.tags.(i) in
      let n = Hashtbl.find owed tag in
      n > 0 && (Hashtbl.replace owed tag (n - 1); true))
    (List.sort by_time !candidates)

let compact t =
  let doomed = Bytes.make t.size '\000' in
  List.iter (fun i -> Bytes.set doomed i '\001') (retracted_entries t);
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if Bytes.get doomed i = '\000' then begin
      move t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  Hashtbl.reset t.retracted;
  t.size <- !kept;
  t.dead <- 0;
  t.compactions <- t.compactions + 1;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i (Float.Array.unsafe_get t.times i) (Array.unsafe_get t.tags i)
  done

let maybe_compact t =
  if t.size >= compact_threshold && 2 * t.dead > t.size then compact t

(* Inlined, so that a time read from a float array is never boxed to
   be checked. *)
let[@inline] check_time name t time =
  if Float.is_nan time then invalid_arg (name ^ ": NaN time");
  if time < t.clock then invalid_arg (name ^ ": time in the past")

let channel t f =
  let n = Array.length t.handlers in
  if n > channel_mask then
    invalid_arg (Printf.sprintf "Sim.channel: at most %d channels" (channel_mask + 1));
  t.handlers <- Array.append t.handlers [| f |];
  t.executed <- Array.append t.executed [| 0 |];
  n

let[@inline] checked_post name t ch time arg =
  check_time name t time;
  if arg < 0 || arg > max_arg then
    invalid_arg (Printf.sprintf "%s: argument %d outside [0, %d]" name arg max_arg);
  if ch < 0 || ch >= Array.length t.handlers then invalid_arg (name ^ ": unknown channel");
  push t time ((arg lsl channel_bits) lor ch)

let post t ch ~time arg = checked_post "Sim.post" t ch time arg
let post_cell t ch times i arg = checked_post "Sim.post_cell" t ch (Float.Array.get times i) arg

(* The post's heap entry stays until it surfaces or a compaction drops it. *)
let retract t ch arg =
  if arg < 0 || arg > max_arg then
    invalid_arg (Printf.sprintf "Sim.retract: argument %d outside [0, %d]" arg max_arg);
  if ch < 0 || ch >= Array.length t.handlers then invalid_arg "Sim.retract: unknown channel";
  let tag = (arg lsl channel_bits) lor ch in
  Hashtbl.replace t.retracted tag
    (1 + Option.value (Hashtbl.find_opt t.retracted tag) ~default:0);
  t.live <- t.live - 1;
  t.dead <- t.dead + 1;
  maybe_compact t

let pending t = t.live
let heap_size t = t.size
let dead_count t = t.dead
let max_heap_size t = t.max_size
let compactions t = t.compactions

let next_time t =
  drop_dead t;
  if t.size = 0 then None else Some (Float.Array.get t.times 0)

let step t =
  drop_dead t;
  if t.size = 0 then false
  else begin
    let time = Float.Array.unsafe_get t.times 0 and tag = t.tags.(0) in
    pop_root t;
    t.live <- t.live - 1;
    t.clock <- time;
    let ch = tag land channel_mask in
    t.executed.(ch) <- t.executed.(ch) + 1;
    t.handlers.(ch) t (tag lsr channel_bits);
    true
  end

(* The driving loops read the earliest live event's time in place, so they
   allocate nothing per event beyond what the event itself does. *)
let[@inline] has_next t =
  drop_dead t;
  t.size > 0

let[@inline] root_time t = Float.Array.unsafe_get t.times 0

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while has_next t && root_time t <= horizon do
        ignore (step t)
      done;
      if t.clock < horizon then t.clock <- horizon

let events_executed t = Array.fold_left ( + ) 0 t.executed
let channel_events t ch = t.executed.(ch)

(* Epoch primitive for conservative parallel simulation: execute every event
   strictly before [horizon] (and, when [until] is given, at or before
   [until]), including events scheduled mid-epoch that still land inside the
   window. Unlike [run ~until], the clock is left at the last executed
   event, so a run cut short by a budget reports the time it actually
   reached. *)
let run_before ?until ~horizon t =
  if Float.is_nan horizon then invalid_arg "Sim.run_before: NaN horizon";
  let until = match until with Some u -> u | None -> Float.infinity in
  if Float.is_nan until then invalid_arg "Sim.run_before: NaN until";
  while
    has_next t
    &&
    let time = root_time t in
    time < horizon && time <= until
  do
    ignore (step t)
  done

(* Barrier primitive: jump an idle simulator's clock forward without running
   anything, so a later immediate action samples the same "now" regardless of
   which partition executed the globally-latest event. *)
let advance_clock t ~time =
  if Float.is_nan time then invalid_arg "Sim.advance_clock: NaN time";
  if time > t.clock then begin
    if has_next t && root_time t < time then
      invalid_arg
        (Printf.sprintf "Sim.advance_clock: pending event at %g earlier than target %g"
           (root_time t) time);
    t.clock <- time
  end
