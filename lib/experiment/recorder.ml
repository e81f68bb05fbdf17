(* Canonical observation ordering for partitioned runs.

   Each partition records its hook events raw; at every epoch barrier the
   partitions' buffers are merged, sorted by the total key
   (time, owner router, per-owner sequence) and replayed into a single
   observer bus. The key is partition-invariant: an owner's events execute
   in the same relative order under any partitioning (the epoch engine
   and the simulator's (time, tag) order guarantee that, at any link
   jitter), so its per-owner sequence numbers are too, and
   cross-owner ties at equal times are broken by the owner id. Observers
   attached to the bus therefore see one deterministic stream regardless
   of the partition count. *)

open Rfd_bgp

type record = { time : float; owner : int; seq : int; event : Hooks.event }

type t = { mutable rev : record list; seqs : int array (* next seq per owner *) }

let create ~nodes =
  if nodes < 1 then invalid_arg "Recorder.create: nodes must be >= 1";
  { rev = []; seqs = Array.make nodes 0 }

let attach t hooks =
  Hooks.tap hooks (fun ~time event ->
      let owner = Hooks.owner event in
      let seq = t.seqs.(owner) in
      t.seqs.(owner) <- seq + 1;
      t.rev <- { time; owner; seq; event } :: t.rev)

let compare_record a b =
  match Float.compare a.time b.time with
  | 0 -> ( match Int.compare a.owner b.owner with 0 -> Int.compare a.seq b.seq | c -> c)
  | c -> c

(* Barrier-time merge: every buffered record predates the next global event
   (records are only emitted by executed events), so draining everything at
   each barrier keeps the replayed stream globally sorted across barriers. *)
let drain_replay recorders bus =
  let records =
    List.concat_map
      (fun t ->
        let items = List.rev t.rev in
        t.rev <- [];
        items)
      recorders
  in
  match records with
  | [] -> ()
  | records ->
      List.iter (fun r -> Hooks.emit bus ~time:r.time r.event)
        (List.stable_sort compare_record records)

(* The bus delivers each owner's events in the same order at any partition
   count, and instants in time order, so sorting one instant at a time by
   owner alone reproduces the merged (time, owner, seq) order. *)
let transcript ~limit bus =
  if limit < 0 then invalid_arg "Recorder.transcript: limit must be >= 0";
  let lines = ref [] and rendered = ref 0 in
  let instant = ref [] and at = ref Float.nan in
  let render () =
    let by_owner a b = Int.compare (Hooks.owner a) (Hooks.owner b) in
    List.iter
      (fun event ->
        if !rendered < limit then begin
          lines := Format.asprintf "%a" (Hooks.pp_event ~time:!at) event :: !lines;
          incr rendered
        end)
      (List.stable_sort by_owner (List.rev !instant));
    instant := []
  in
  Hooks.tap bus (fun ~time event ->
      if !rendered < limit then begin
        if not (Float.equal time !at) then begin
          render ();
          at := time
        end;
        instant := event :: !instant
      end);
  fun () ->
    render ();
    List.rev !lines
