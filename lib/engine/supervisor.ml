type 'a outcome =
  | Completed of { value : 'a; attempts : int }
  | Crashed of { attempts : int; error : string }
  | Timed_out of { attempts : int; deadline : float }
  | Cancelled

exception Crash_worker of string

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let () =
  Printexc.register_printer (function
    | Crash_worker msg -> Some (Printf.sprintf "Supervisor.Crash_worker(%S)" msg)
    | _ -> None)

(* Seeded by (key, attempt), never by wall-clock time: re-running the same
   batch produces the same pacing, and the delay cannot leak host timing
   into anything downstream. *)
let backoff_delay ~key ~attempt ~base =
  if attempt <= 1 then 0.
  else
    let rng = Rng.create (Hashtbl.hash (key, attempt)) in
    let jitter = 0.5 +. Rng.float rng 1.0 in
    Float.min 5. (base *. (2. ** float_of_int (attempt - 2)) *. jitter)

type task = { index : int; attempt : int }

(* One worker-domain seat. [epoch] is the abandonment token: the monitor
   bumps it when it gives up on the seat's current attempt (timeout) or
   replaces a dead worker, and a worker whose spawn-time epoch no longer
   matches discards whatever it was doing and exits. The orphaned domain
   behind a bumped epoch is never joined — it may be wedged forever. *)
type slot = {
  mutable domain : unit Domain.t option;
  mutable epoch : int;
  mutable running : task option;
  mutable started_at : float;
  mutable dead : bool;
}

type ('a, 'b) state = {
  inputs : 'a array;
  key : 'a -> string;
  results : 'b outcome option array;
  reported : bool array;
  queue : task Queue.t;
  mutex : Mutex.t;
  work : Condition.t;
  mutable outstanding : int;  (* jobs without a terminal outcome *)
  mutable stop : bool;
  mutable finished : bool;
  retries : int;
  deadline : float option;
  backoff_base : float;
}

(* Requires [st.mutex]. Either requeues the next attempt or commits the
   terminal outcome built by [terminal]. *)
let record_failure st task terminal =
  if task.attempt <= st.retries && not st.stop then begin
    Queue.add { task with attempt = task.attempt + 1 } st.queue;
    Condition.signal st.work
  end
  else begin
    st.results.(task.index) <- Some (terminal ());
    st.outstanding <- st.outstanding - 1
  end

let rec worker_loop st slot epoch f =
  Mutex.lock st.mutex;
  let rec next () =
    if st.finished || slot.epoch <> epoch then None
    else
      match Queue.take_opt st.queue with
      | Some task -> Some task
      | None ->
          Condition.wait st.work st.mutex;
          next ()
  in
  match next () with
  | None -> Mutex.unlock st.mutex
  | Some task ->
      slot.running <- Some task;
      slot.started_at <- Clock.wall ();
      Mutex.unlock st.mutex;
      let input = st.inputs.(task.index) in
      (* Only a retry reads the job's key, and it does so outside the lock,
         so a first attempt never pays for it. The deadline clock restarts
         once the backoff sleep is over. *)
      if task.attempt > 1 then begin
        let delay =
          backoff_delay ~key:(st.key input) ~attempt:task.attempt ~base:st.backoff_base
        in
        Mutex.lock st.mutex;
        if slot.epoch = epoch then slot.started_at <- Clock.wall () +. delay;
        Mutex.unlock st.mutex;
        Unix.sleepf delay
      end;
      let r =
        match f input with
        | v -> Ok v
        | exception (Crash_worker _ as e) -> raise e (* kill this worker *)
        | exception e -> Error (Printexc.to_string e)
      in
      Mutex.lock st.mutex;
      if slot.epoch <> epoch then
        (* Abandoned mid-attempt (timed out): the retry owns the job now;
           this late result is discarded and the orphan exits. *)
        Mutex.unlock st.mutex
      else begin
        slot.running <- None;
        (if st.results.(task.index) = None then
           match r with
           | Ok v ->
               st.results.(task.index) <-
                 Some (Completed { value = v; attempts = task.attempt });
               st.outstanding <- st.outstanding - 1
           | Error error ->
               record_failure st task (fun () ->
                   Crashed { attempts = task.attempt; error }));
        Mutex.unlock st.mutex;
        worker_loop st slot epoch f
      end

(* Anything escaping the per-attempt capture (i.e. [Crash_worker], or a
   catastrophe in the loop itself) ends this domain: record the in-flight
   attempt as crashed and flag the seat so the monitor respawns it. *)
let worker st slot epoch f =
  try worker_loop st slot epoch f
  with e ->
    let error = "worker crashed: " ^ Printexc.to_string e in
    Mutex.lock st.mutex;
    if slot.epoch = epoch then begin
      (match slot.running with
      | Some task when st.results.(task.index) = None ->
          record_failure st task (fun () ->
              Crashed { attempts = task.attempt; error })
      | _ -> ());
      slot.running <- None;
      slot.dead <- true
    end;
    Condition.broadcast st.work;
    Mutex.unlock st.mutex

(* Requires [st.mutex]. Bumps the epoch (disowning any previous worker)
   and seats a fresh domain; on spawn failure (domain limit) the seat is
   left empty and the all-seats-empty guard in the monitor cleans up. *)
let spawn_slot st slot f =
  slot.epoch <- slot.epoch + 1;
  let epoch = slot.epoch in
  slot.running <- None;
  slot.dead <- false;
  slot.domain <-
    (match Domain.spawn (fun () -> worker st slot epoch f) with
    | d -> Some d
    | exception _ -> None)

let supervise ?jobs ?deadline ?(retries = 0) ?(backoff_base = 0.05)
    ?(poll_interval = 0.05) ?(should_stop = fun () -> false) ?on_outcome
    ~key f xs =
  if retries < 0 then invalid_arg "Supervisor.supervise: retries must be >= 0";
  (match deadline with
  | Some d when Float.is_nan d || d <= 0. ->
      invalid_arg "Supervisor.supervise: deadline must be positive"
  | Some _ | None -> ());
  if Float.is_nan backoff_base || backoff_base <= 0. then
    invalid_arg "Supervisor.supervise: backoff_base must be positive";
  if Float.is_nan poll_interval || poll_interval <= 0. then
    invalid_arg "Supervisor.supervise: poll_interval must be positive";
  match xs with
  | [] -> []
  | _ ->
      let inputs = Array.of_list xs in
      let n = Array.length inputs in
      let st =
        {
          inputs;
          key;
          results = Array.make n None;
          reported = Array.make n false;
          queue = Queue.create ();
          mutex = Mutex.create ();
          work = Condition.create ();
          outstanding = n;
          stop = false;
          finished = false;
          retries;
          deadline;
          backoff_base;
        }
      in
      for index = 0 to n - 1 do
        Queue.add { index; attempt = 1 } st.queue
      done;
      let jobs =
        min n (match jobs with None -> default_jobs () | Some j -> max 1 j)
      in
      let slots =
        Array.init jobs (fun _ ->
            { domain = None; epoch = 0; running = None; started_at = 0.; dead = false })
      in
      Mutex.lock st.mutex;
      Array.iter (fun slot -> spawn_slot st slot f) slots;
      Mutex.unlock st.mutex;
      (* Requires [st.mutex]. Terminal outcome for every still-queued task. *)
      let drain_queue mk =
        Queue.iter
          (fun task ->
            if st.results.(task.index) = None then begin
              st.results.(task.index) <- Some (mk task);
              st.outstanding <- st.outstanding - 1
            end)
          st.queue;
        Queue.clear st.queue
      in
      let clean = ref false in
      (* The monitor's nap starts at 1 ms, again after every pass that
         reported an outcome, and doubles up to [poll_interval]: a batch is
         collected soon after its last job lands, while a long job costs at
         most one pass per interval. *)
      let first_nap = Float.min 0.001 poll_interval in
      let nap = ref first_nap in
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock st.mutex;
          st.finished <- true;
          Condition.broadcast st.work;
          Mutex.unlock st.mutex;
          (* Only join on the clean path: after an [on_outcome] exception a
             worker may be wedged mid-job, and joining it would hang the
             unwind. Leaked workers see [finished] at their next commit. *)
          if !clean then
            Array.iter
              (fun slot ->
                match slot.domain with
                | Some d -> ( try Domain.join d with _ -> ())
                | None -> ())
              slots)
        (fun () ->
          let rec monitor () =
            let stop_now = should_stop () in
            Mutex.lock st.mutex;
            if stop_now && not st.stop then begin
              st.stop <- true;
              drain_queue (fun _ -> Cancelled)
            end;
            let now = Clock.wall () in
            Array.iter
              (fun slot ->
                if slot.dead then begin
                  (* The dead worker's loop has exited; reclaim the domain
                     quickly, then reseat. *)
                  (match slot.domain with
                  | Some d -> ( try Domain.join d with _ -> ())
                  | None -> ());
                  spawn_slot st slot f
                end
                else
                  match (st.deadline, slot.running) with
                  | Some d, Some task when now -. slot.started_at > d ->
                      record_failure st task (fun () ->
                          Timed_out { attempts = task.attempt; deadline = d });
                      (* Orphan the wedged domain (never joined) and seat a
                         fresh worker so throughput is preserved. *)
                      slot.domain <- None;
                      spawn_slot st slot f
                  | _ -> ())
              slots;
            if
              Array.for_all (fun slot -> slot.domain = None) slots
              && not (Queue.is_empty st.queue)
            then
              (* Every seat failed to spawn (domain limit): nothing will
                 ever run the queued tasks, so fail them instead of
                 spinning forever. *)
              drain_queue (fun task ->
                  Crashed
                    {
                      attempts = task.attempt;
                      error = "cannot spawn worker domain (domain limit reached)";
                    });
            let report = ref [] in
            Array.iteri
              (fun i r ->
                match r with
                | Some o when not st.reported.(i) ->
                    st.reported.(i) <- true;
                    report := (i, o) :: !report
                | _ -> ())
              st.results;
            let done_ = st.outstanding = 0 in
            Mutex.unlock st.mutex;
            (match on_outcome with
            | Some hook ->
                List.iter (fun (i, o) -> hook st.inputs.(i) o) (List.rev !report)
            | None -> ());
            if not done_ then begin
              if !report <> [] then nap := first_nap;
              Unix.sleepf !nap;
              nap := Float.min poll_interval (2. *. !nap);
              monitor ()
            end
          in
          monitor ();
          clean := true;
          Array.to_list st.results
          |> List.map (function Some o -> o | None -> assert false))
