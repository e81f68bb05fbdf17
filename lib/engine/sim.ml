(* The event type and the simulator type are mutually recursive (actions
   receive the simulator), so the pending-event heap is inlined here rather
   than instantiating the [Heap] functor. Same classic binary-heap layout. *)

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable live : int;
  mutable executed : int;
  mutable data : event array;
  mutable size : int;
  mutable dead : int; (* cancelled events still occupying heap slots *)
  mutable max_size : int; (* high-water mark of [size] *)
  mutable compactions : int;
}

and event = {
  time : float;
  order : int;
  action : t -> unit;
  mutable state : [ `Pending | `Cancelled | `Done ];
}

type event_id = event

let create () =
  {
    clock = 0.;
    seq = 0;
    live = 0;
    executed = 0;
    data = [||];
    size = 0;
    dead = 0;
    max_size = 0;
    compactions = 0;
  }

let now t = t.clock

let earlier a b = a.time < b.time || (a.time = b.time && a.order < b.order)

let grow t x =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 256 else cap * 2 in
  let fresh = Array.make new_cap x in
  Array.blit t.data 0 fresh 0 cap;
  t.data <- fresh

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < t.size && earlier t.data.(left) t.data.(!smallest) then smallest := left;
  if right < t.size && earlier t.data.(right) t.data.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let heap_push t ev =
  if t.size >= Array.length t.data then grow t ev;
  t.data.(t.size) <- ev;
  t.size <- t.size + 1;
  if t.size > t.max_size then t.max_size <- t.size;
  sift_up t (t.size - 1)

let heap_pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

(* Cancelled events stay in the heap and are skipped on pop; [live] counts
   only pending ones so quiescence checks are exact. *)
let rec drop_dead t =
  if t.size > 0 && t.data.(0).state <> `Pending then begin
    ignore (heap_pop t);
    t.dead <- t.dead - 1;
    drop_dead t
  end

(* Lazy deletion alone lets cancelled events pile up below the root
   (a workload that arms and cancels timers faster than it drains them
   grows the heap without bound). When more than half the occupied slots
   are dead, rebuild in place: keep the pending events, discard the rest,
   and re-establish the heap property bottom-up (Floyd). Pop order is
   untouched — it is fully determined by the total (time, order) key, not
   by the heap's internal layout. *)
let compact_threshold = 64

let compact t =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.data.(i) in
    if ev.state = `Pending then begin
      t.data.(!kept) <- ev;
      incr kept
    end
  done;
  (* Release dropped slots so dead events' closures can be collected. When
     nothing survives there is no live event to overwrite the slots with, so
     drop the whole backing array instead — [grow] re-allocates from scratch
     on the next push. Keeping the array here (the old [kept > 0]-guarded
     code) pinned every dead closure until the next schedule. *)
  if !kept > 0 then
    for i = !kept to t.size - 1 do
      t.data.(i) <- t.data.(0)
    done
  else t.data <- [||];
  t.size <- !kept;
  t.dead <- 0;
  t.compactions <- t.compactions + 1;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let maybe_compact t =
  if t.size >= compact_threshold && 2 * t.dead > t.size then compact t

let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Sim.schedule_at: NaN time";
  if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
  let ev = { time; order = t.seq; action = f; state = `Pending } in
  t.seq <- t.seq + 1;
  heap_push t ev;
  t.live <- t.live + 1;
  ev

let schedule t ~delay f =
  if Float.is_nan delay || delay < 0. then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let cancel t ev =
  match ev.state with
  | `Pending ->
      ev.state <- `Cancelled;
      t.live <- t.live - 1;
      t.dead <- t.dead + 1;
      maybe_compact t
  | `Cancelled | `Done -> ()

let is_pending _t ev = ev.state = `Pending
let pending t = t.live
let heap_size t = t.size
let dead_count t = t.dead
let max_heap_size t = t.max_size
let compactions t = t.compactions

let next_time t =
  drop_dead t;
  if t.size = 0 then None else Some t.data.(0).time

let step t =
  drop_dead t;
  match heap_pop t with
  | None -> false
  | Some ev ->
      ev.state <- `Done;
      t.live <- t.live - 1;
      t.clock <- ev.time;
      t.executed <- t.executed + 1;
      ev.action t;
      true

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      let continue = ref true in
      while !continue do
        match next_time t with
        | Some time when time <= horizon -> ignore (step t)
        | Some _ | None ->
            if t.clock < horizon then t.clock <- horizon;
            continue := false
      done

let events_executed t = t.executed

(* Epoch primitive for conservative parallel simulation: execute every event
   strictly before [horizon] (and, when [until] is given, at or before
   [until]), including events scheduled mid-epoch that still land inside the
   window. Unlike [run ~until], the clock is left at the last executed
   event, so a run cut short by a budget reports the time it actually
   reached. *)
let run_before ?until ~horizon t =
  if Float.is_nan horizon then invalid_arg "Sim.run_before: NaN horizon";
  (match until with
  | Some u when Float.is_nan u -> invalid_arg "Sim.run_before: NaN until"
  | Some _ | None -> ());
  let continue = ref true in
  while !continue do
    match next_time t with
    | Some time
      when time < horizon && (match until with Some u -> time <= u | None -> true) ->
        ignore (step t)
    | Some _ | None -> continue := false
  done

(* Barrier primitive: jump an idle simulator's clock forward without running
   anything, so a later immediate action samples the same "now" regardless of
   which partition executed the globally-latest event. *)
let advance_clock t ~time =
  if Float.is_nan time then invalid_arg "Sim.advance_clock: NaN time";
  if time > t.clock then begin
    (match next_time t with
    | Some pending when pending < time ->
        invalid_arg
          (Printf.sprintf
             "Sim.advance_clock: pending event at %g earlier than target %g" pending
             time)
    | Some _ | None -> ());
    t.clock <- time
  end

type repeating = { mutable current : event option }

let every t ~interval ?start f =
  if Float.is_nan interval || interval <= 0. then
    invalid_arg "Sim.every: interval must be positive";
  (match start with
  | Some time when Float.is_nan time || time < t.clock ->
      invalid_arg
        (Printf.sprintf
           "Sim.every: start %g is in the past (now %g, interval %g)" time t.clock
           interval)
  | Some _ | None -> ());
  (* The chain re-schedules itself through the handle so that [stop] always
     cancels the pending occurrence. *)
  let handle = { current = None } in
  let rec occurrence sim =
    handle.current <- None;
    if f sim then handle.current <- Some (schedule sim ~delay:interval occurrence)
  in
  let first =
    match start with
    | Some time -> schedule_at t ~time occurrence
    | None -> schedule t ~delay:interval occurrence
  in
  handle.current <- Some first;
  handle

let stop t handle =
  match handle.current with
  | Some ev ->
      cancel t ev;
      handle.current <- None
  | None -> ()
