(* The pending-event queue is a binary heap stored as three columns, so that
   no pending event owns a heap block: [times] (an unboxed float array),
   [orders] (the scheduling counter, the FIFO tie-break) and [tags]. A tag
   packs a channel number in its low [channel_bits] bits and the channel's
   int argument above them; popping an event calls the channel's handler
   with that argument.

   Channel 0 runs closures: its argument is a slot in the closure table
   ([actions], with a generation per slot and a free list threaded through
   [free_next]). An [event_id] packs the slot and the slot's generation at
   scheduling time; the generation moves on when the event runs or is
   cancelled, which makes every older handle for the slot stale (until the
   31-bit generation wraps, after 2^31 events in one slot).

   A post is dead once [retract]ed: [retracted] counts, per tag, how many of
   that tag's earliest pending entries are dead. The root is the earliest
   entry of all, so it is dead exactly when its tag has a count; compaction
   sorts the entries of retracted tags to find which ones. *)

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable live : int;
  mutable executed : int array; (* by channel: events run *)
  mutable times : Float.Array.t;
  mutable orders : int array;
  mutable tags : int array;
  mutable size : int;
  mutable dead : int; (* cancelled events still occupying heap slots *)
  mutable max_size : int; (* high-water mark of [size] *)
  mutable compactions : int;
  mutable handlers : (t -> int -> unit) array; (* by channel; 0 runs closures *)
  mutable actions : (t -> unit) array; (* closure table, by slot *)
  mutable gens : int array; (* by slot: generation of the current occupant *)
  mutable free_next : int array; (* by slot: next free slot, -1 ends the list *)
  mutable free : int; (* head of the free-slot list, -1 when empty *)
  retracted : (int, int) Hashtbl.t; (* by tag: dead posts still in the heap *)
  mutable retractions : int; (* sum of [retracted]'s counts *)
}

type event_id = int
type channel = int

let channel_bits = 8
let channel_mask = (1 lsl channel_bits) - 1
let max_arg = max_int lsr channel_bits
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = max_int lsr slot_bits

(* Held by every closure slot that has no pending event: free, or cancelled
   while its heap entry waits to be dropped. Storing it releases the slot's
   closure at once. *)
let vacant : t -> unit = fun _ -> ()

let no_event = -1

(* The closure event in [slot] stops being pending: every handle issued
   for it goes stale, and the table lets go of its closure. *)
let retire t slot =
  t.gens.(slot) <- (t.gens.(slot) + 1) land gen_mask;
  t.actions.(slot) <- vacant

let free_slot t slot =
  t.free_next.(slot) <- t.free;
  t.free <- slot

(* Channel 0: run the closure in [slot]. The slot is freed first, so the
   closure is not reachable from the table once it has run and the action
   may reuse the slot for the events it schedules. *)
let run_action t slot =
  let f = t.actions.(slot) in
  retire t slot;
  free_slot t slot;
  f t

let create () =
  {
    clock = 0.;
    seq = 0;
    live = 0;
    executed = [| 0 |];
    times = Float.Array.create 0;
    orders = [||];
    tags = [||];
    size = 0;
    dead = 0;
    max_size = 0;
    compactions = 0;
    handlers = [| run_action |];
    actions = [||];
    gens = [||];
    free_next = [||];
    free = -1;
    retracted = Hashtbl.create 16;
    retractions = 0;
  }

let now t = t.clock

(* The heap helpers take an event's time as an unboxed float; they are
   inlined so that passing it does not box it. *)
let[@inline] earlier (time : float) (order : int) time' order' =
  time < time' || (time = time' && order < order')

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.orders dst (Array.unsafe_get t.orders src);
  Array.unsafe_set t.tags dst (Array.unsafe_get t.tags src)

let[@inline] place t i time order tag =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.orders i order;
  Array.unsafe_set t.tags i tag

(* Put the event (time, order, tag) into the hole at [i], moving earlier
   parents down. *)
let[@inline] sift_up t i time order tag =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier time order (Float.Array.unsafe_get t.times parent)
         (Array.unsafe_get t.orders parent)
    then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  place t !i time order tag

(* Put the event (time, order, tag) into the hole at [i], moving earlier
   children up. *)
let[@inline] sift_down t i time order tag =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= t.size then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < t.size
           && earlier (Float.Array.unsafe_get t.times right) (Array.unsafe_get t.orders right)
                (Float.Array.unsafe_get t.times left) (Array.unsafe_get t.orders left)
        then right
        else left
      in
      if earlier (Float.Array.unsafe_get t.times child) (Array.unsafe_get t.orders child) time
           order
      then begin
        move t ~src:child ~dst:!i;
        i := child
      end
      else continue := false
    end
  done;
  place t !i time order tag

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
  t.orders <- extend t.orders new_cap 0;
  t.tags <- extend t.tags new_cap 0

(* Queue an event with the next scheduling order. *)
let[@inline] push t time tag =
  if t.size >= Array.length t.tags then grow_heap t;
  let order = t.seq in
  t.seq <- order + 1;
  t.size <- t.size + 1;
  if t.size > t.max_size then t.max_size <- t.size;
  t.live <- t.live + 1;
  sift_up t (t.size - 1) time order tag

let pop_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t 0 (Float.Array.unsafe_get t.times last) (Array.unsafe_get t.orders last)
      (Array.unsafe_get t.tags last)

(* A heap entry is dead when it is a closure event whose slot was vacated
   by [cancel], or a retracted post. For a post this answer holds only at
   the root, the earliest entry: [compact] works out the others itself. *)
let[@inline] is_dead t tag =
  if tag land channel_mask = 0 then t.actions.(tag lsr channel_bits) == vacant
  else t.retractions > 0 && Hashtbl.mem t.retracted tag

(* One dead entry of [tag] leaves the heap. *)
let release t tag =
  if tag land channel_mask = 0 then free_slot t (tag lsr channel_bits)
  else begin
    let n = Hashtbl.find t.retracted tag in
    if n = 1 then Hashtbl.remove t.retracted tag else Hashtbl.replace t.retracted tag (n - 1);
    t.retractions <- t.retractions - 1
  end

(* Cancelled events stay in the heap and are skipped on pop; [live] counts
   only pending ones so quiescence checks are exact. *)
let drop_dead t =
  while t.size > 0 && is_dead t t.tags.(0) do
    release t t.tags.(0);
    pop_root t;
    t.dead <- t.dead - 1
  done

(* Lazy deletion alone lets cancelled events pile up below the root
   (a workload that arms and cancels timers faster than it drains them
   grows the heap without bound). When more than half the occupied slots
   are dead, rebuild in place: keep the pending events, free the slots of
   the rest, and re-establish the heap property bottom-up (Floyd). Pop
   order is untouched — it is fully determined by the total (time, order)
   key, not by the heap's internal layout. *)
let compact_threshold = 64

(* Heap indices of the retracted posts: of each retracted tag's entries,
   the earliest [count] in (time, order). *)
let retracted_entries t =
  let candidates = ref [] in
  for i = t.size - 1 downto 0 do
    if t.tags.(i) land channel_mask <> 0 && Hashtbl.mem t.retracted t.tags.(i) then
      candidates := i :: !candidates
  done;
  let by_key i j =
    let ti = Float.Array.get t.times i and tj = Float.Array.get t.times j in
    if ti <> tj then Float.compare ti tj else Int.compare t.orders.(i) t.orders.(j)
  in
  let owed = Hashtbl.copy t.retracted in
  List.filter
    (fun i ->
      let tag = t.tags.(i) in
      let n = Hashtbl.find owed tag in
      n > 0 && (Hashtbl.replace owed tag (n - 1); true))
    (List.sort by_key !candidates)

let compact t =
  let doomed = Bytes.make t.size '\000' in
  if t.retractions > 0 then
    List.iter (fun i -> Bytes.set doomed i '\001') (retracted_entries t);
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let tag = t.tags.(i) in
    if tag land channel_mask = 0 && t.actions.(tag lsr channel_bits) == vacant then
      free_slot t (tag lsr channel_bits)
    else if Bytes.get doomed i <> '\000' then ()
    else begin
      move t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  Hashtbl.reset t.retracted;
  t.retractions <- 0;
  t.size <- !kept;
  t.dead <- 0;
  t.compactions <- t.compactions + 1;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i (Float.Array.unsafe_get t.times i) (Array.unsafe_get t.orders i)
      (Array.unsafe_get t.tags i)
  done

let maybe_compact t =
  if t.size >= compact_threshold && 2 * t.dead > t.size then compact t

let check_time name t time =
  if Float.is_nan time then invalid_arg (name ^ ": NaN time");
  if time < t.clock then invalid_arg (name ^ ": time in the past")

let channel t f =
  let n = Array.length t.handlers in
  if n > channel_mask then
    invalid_arg (Printf.sprintf "Sim.channel: at most %d channels" channel_mask);
  t.handlers <- Array.append t.handlers [| f |];
  t.executed <- Array.append t.executed [| 0 |];
  n

let post t ch ~time arg =
  check_time "Sim.post" t time;
  if arg < 0 || arg > max_arg then
    invalid_arg (Printf.sprintf "Sim.post: argument %d outside [0, %d]" arg max_arg);
  if ch <= 0 || ch >= Array.length t.handlers then invalid_arg "Sim.post: unknown channel";
  push t time ((arg lsl channel_bits) lor ch)

(* The post's heap entry stays until it surfaces or a compaction drops it,
   exactly as a cancelled closure event's does. *)
let retract t ch arg =
  if arg < 0 || arg > max_arg then
    invalid_arg (Printf.sprintf "Sim.retract: argument %d outside [0, %d]" arg max_arg);
  if ch <= 0 || ch >= Array.length t.handlers then invalid_arg "Sim.retract: unknown channel";
  let tag = (arg lsl channel_bits) lor ch in
  Hashtbl.replace t.retracted tag
    (1 + Option.value (Hashtbl.find_opt t.retracted tag) ~default:0);
  t.retractions <- t.retractions + 1;
  t.live <- t.live - 1;
  t.dead <- t.dead + 1;
  maybe_compact t

(* Called with the free list empty: chain the new slots onto it. *)
let grow_slots t =
  let cap = Array.length t.actions in
  let new_cap = if cap = 0 then 256 else cap * 2 in
  if new_cap - 1 > slot_mask then failwith "Sim: closure table full";
  t.actions <- extend t.actions new_cap vacant;
  t.gens <- extend t.gens new_cap 0;
  t.free_next <- extend t.free_next new_cap (-1);
  for slot = cap to new_cap - 2 do
    t.free_next.(slot) <- slot + 1
  done;
  t.free <- cap

let schedule_at t ~time f =
  check_time "Sim.schedule_at" t time;
  if t.free < 0 then grow_slots t;
  let slot = t.free in
  t.free <- t.free_next.(slot);
  t.actions.(slot) <- f;
  push t time (slot lsl channel_bits);
  (t.gens.(slot) lsl slot_bits) lor slot

let schedule t ~delay f =
  if Float.is_nan delay || delay < 0. then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let is_pending t ev =
  ev >= 0
  &&
  let slot = ev land slot_mask in
  slot < Array.length t.gens && t.gens.(slot) = ev lsr slot_bits

(* The slot stays allocated until its heap entry is dropped, so no other
   event can take it while that entry still names it. *)
let cancel t ev =
  if is_pending t ev then begin
    retire t (ev land slot_mask);
    t.live <- t.live - 1;
    t.dead <- t.dead + 1;
    maybe_compact t
  end

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
let closure_events t = t.executed.(0)
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
