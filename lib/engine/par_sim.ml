(* Conservative lockstep-epoch execution over several simulators.

   Chandy–Misra-style null-message-free variant: all partitions share one
   global epoch. Each barrier computes T = min over partitions of the next
   pending event time; the epoch then executes every event in [T, T + L)
   where L is the lookahead — the minimum latency any cross-partition
   interaction can have. A message sent during the epoch therefore lands at
   or beyond the epoch's end, so it can safely wait in a mailbox until the
   barrier, and every partition's local event order equals its order in the
   equivalent single-simulator run.

   The calling domain runs partition 0; each further partition has a worker
   domain of its own for the lifetime of [t]. An epoch is published under
   [mutex] by bumping [epoch]; every worker runs its partition once per
   bump and reports back, so the caller returns from an epoch only after
   every partition has finished it. *)

type t = {
  sims : Sim.t array;
  mutex : Mutex.t;
  start : Condition.t;  (* workers wait here for the next epoch *)
  finished : Condition.t;  (* the caller waits here for [remaining = 0] *)
  mutable epoch : int;
  mutable horizon : float;
  mutable until : float option;
  mutable remaining : int;
  mutable closed : bool;
  failures : (exn * Printexc.raw_backtrace) option array;  (* this epoch's, by partition *)
  mutable workers : unit Domain.t list;
}

let run_partition t i ~until ~horizon =
  t.failures.(i) <-
    (match Sim.run_before ?until ~horizon t.sims.(i) with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ()))

(* A worker never lets an exception escape: its partition's is recorded in
   [failures] for the caller to re-raise, so a failed epoch leaves every
   domain alive and joinable. *)
let worker t i =
  let rec loop seen =
    Mutex.lock t.mutex;
    while t.epoch = seen && not t.closed do
      Condition.wait t.start t.mutex
    done;
    if t.closed then Mutex.unlock t.mutex
    else begin
      let epoch = t.epoch and until = t.until and horizon = t.horizon in
      Mutex.unlock t.mutex;
      run_partition t i ~until ~horizon;
      Mutex.lock t.mutex;
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex;
      loop epoch
    end
  in
  loop 0

let shutdown t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    List.iter (fun d -> try Domain.join d with _ -> ()) t.workers;
    t.workers <- []
  end

let create sims =
  let parts = Array.length sims in
  if parts = 0 then invalid_arg "Par_sim.create: no simulators";
  let t =
    {
      sims;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      horizon = 0.;
      until = None;
      remaining = 0;
      closed = false;
      failures = Array.make parts None;
      workers = [];
    }
  in
  (try
     for i = 1 to parts - 1 do
       t.workers <- Domain.spawn (fun () -> worker t i) :: t.workers
     done
   with e ->
     shutdown t;
     raise e);
  t

let run_epoch t ~until ~horizon =
  let parts = Array.length t.sims in
  if parts = 1 then Sim.run_before ?until ~horizon t.sims.(0)
  else begin
    Mutex.lock t.mutex;
    t.until <- until;
    t.horizon <- horizon;
    t.remaining <- parts - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    run_partition t 0 ~until ~horizon;
    Mutex.lock t.mutex;
    while t.remaining > 0 do
      Condition.wait t.finished t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      t.failures
  end

let lockstep ~lookahead ?until ?max_events ~executed ~exchange t =
  if Float.is_nan lookahead || lookahead <= 0. then
    invalid_arg "Par_sim.lockstep: lookahead must be positive";
  (match until with
  | Some u when Float.is_nan u -> invalid_arg "Par_sim.lockstep: NaN until"
  | Some _ | None -> ());
  (match max_events with
  | Some m when m < 0 -> invalid_arg "Par_sim.lockstep: negative max_events"
  | Some _ | None -> ());
  if t.closed then invalid_arg "Par_sim.lockstep: shut down";
  let global_next () =
    Array.fold_left
      (fun acc sim ->
        match (acc, Sim.next_time sim) with
        | None, next -> next
        | acc, None -> acc
        | Some a, Some b -> Some (Float.min a b))
      None t.sims
  in
  let out_of_events () =
    match max_events with Some m -> executed () >= m | None -> false
  in
  let verdict = ref None in
  while !verdict = None do
    (* The barrier: drain cross-partition mailboxes (scheduling their events
       into the receiving simulators) before looking at the global clock, so
       buffered messages count as pending work. *)
    exchange ();
    if out_of_events () then verdict := Some `Budget
    else
      match global_next () with
      | None -> verdict := Some `Drained
      | Some next when (match until with Some u -> next > u | None -> false) ->
          verdict := Some `Horizon
      | Some next ->
          (* Past 2^49 s at a 0.05 s lookahead (or at an infinite time) the
             sum rounds back to [next]: the epoch would execute nothing,
             and the loop would repeat it forever. *)
          let horizon = next +. lookahead in
          if not (horizon > next) then
            invalid_arg
              (Printf.sprintf "Par_sim.lockstep: event time %g cannot advance by the %g s lookahead"
                 next lookahead);
          run_epoch t ~until ~horizon
  done;
  match !verdict with Some v -> v | None -> assert false
